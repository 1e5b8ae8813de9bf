let default_buckets = 256

let sort = Rand_chol.Counting_sort { buckets = default_buckets }

let factorize ~rng g ~d =
  Obs.span "lt_rchol" @@ fun () ->
  Rand_chol.factorize ~sort ~sampling:Rand_chol.Shared_random ~rng g ~d

let factorize_updatable ~rng g ~d =
  Obs.span "lt_rchol" @@ fun () ->
  Rand_chol.factorize_updatable ~sort ~sampling:Rand_chol.Shared_random ~rng
    g ~d
