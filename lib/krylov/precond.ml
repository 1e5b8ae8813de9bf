module Vec = Sparse.Vec

type t = {
  name : string;
  nnz : int;
  scratch_len : int;
  apply : ?scratch:Vec.t -> Vec.t -> Vec.t -> unit;
}

let identity n =
  {
    name = "identity";
    nnz = 0;
    scratch_len = 0;
    apply =
      (fun ?scratch:_ r z ->
        if Vec.length r <> n || Vec.length z <> n then
          invalid_arg
            (Printf.sprintf
               "Precond.identity: built for dimension %d, applied to vectors \
                of length %d -> %d"
               n (Vec.length r) (Vec.length z));
        Vec.blit ~src:r ~dst:z);
  }

let jacobi a =
  let d = Sparse.Csc.diag a in
  let n = Vec.length d in
  let inv =
    Vec.init n (fun i ->
        let x = Vec.get d i in
        if x > 0.0 then 1.0 /. x else 1.0)
  in
  {
    name = "jacobi";
    nnz = n;
    scratch_len = 0;
    apply =
      (fun ?scratch:_ r z ->
        if Vec.length r <> n || Vec.length z <> n then
          invalid_arg
            (Printf.sprintf
               "Precond.jacobi: dimension %d, applied to length %d -> %d" n
               (Vec.length r) (Vec.length z));
        for i = 0 to n - 1 do
          Vec.unsafe_set z i (Vec.unsafe_get r i *. Vec.unsafe_get inv i)
        done);
  }

let of_factor ?(name = "factor") ~perm l =
  let n = Factor.Lower.dim l in
  (* No captured scratch: the value is reentrant. Callers that care about
     allocation (the PCG workspace loop) pass [~scratch]; callers that
     don't pay one n-array allocation per apply. *)
  {
    name;
    nnz = Factor.Lower.nnz l;
    scratch_len = n;
    apply =
      (fun ?scratch r z ->
        let scratch =
          match scratch with
          | Some s ->
            if Vec.length s < n then
              invalid_arg
                (Printf.sprintf
                   "Precond.of_factor: scratch length %d < dimension %d"
                   (Vec.length s) n);
            s
          | None -> Vec.create n
        in
        Factor.Lower.apply_preconditioner l ~perm ~scratch r z);
  }

let of_apply ~name ~nnz apply =
  { name; nnz; scratch_len = 0; apply = (fun ?scratch:_ r z -> apply r z) }

(* A mutex-guarded free list: each application takes a workspace nobody
   else holds and hands it back when done. A workspace lost to an
   exception is only garbage; the next taker builds a fresh one. *)
type 'w pool = { make : unit -> 'w; lock : Mutex.t; mutable free : 'w list }

let pool make = { make; lock = Mutex.create (); free = [] }

let with_pooled p f =
  let spare =
    Mutex.protect p.lock (fun () ->
        match p.free with
        | w :: rest ->
          p.free <- rest;
          Some w
        | [] -> None)
  in
  let w = match spare with Some w -> w | None -> p.make () in
  let result = f w in
  Mutex.protect p.lock (fun () -> p.free <- w :: p.free);
  result
