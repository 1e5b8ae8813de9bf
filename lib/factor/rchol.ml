let factorize ~rng g ~d =
  Obs.span "rchol" @@ fun () ->
  Rand_chol.factorize ~sort:Rand_chol.Exact_sort
    ~sampling:Rand_chol.Per_neighbor ~rng g ~d
