(* The library's one parallel region. [parallel_for] spawns one domain per
   chunk after the first, runs chunk 0 on the calling domain and joins
   every domain it spawned before it returns or raises, so no domain
   outlives the region that needed it.

   A chunk's exception is caught and re-raised on the caller after the
   join, so a failing chunk cannot leave a domain running. *)

let backend = "domains"
let hardware_domains () = Domain.recommended_domain_count ()

let max_domains = 128

let domains_of_string s =
  let s = String.trim s in
  if s = "" then Error "domain count is empty; expected a positive integer"
  else
    match int_of_string_opt s with
    | None ->
      Error
        (Printf.sprintf
           "invalid domain count %S: expected a positive integer (e.g. 4)" s)
    | Some v when v < 1 ->
      Error
        (Printf.sprintf
           "invalid domain count %d: must be >= 1 (1 = sequential)" v)
    | Some v when v > max_domains ->
      Error
        (Printf.sprintf "domain count %d exceeds the maximum of %d" v
           max_domains)
    | Some v -> Ok v

let recommended_domains () =
  match Sys.getenv_opt "POWERRCHOL_DOMAINS" with
  | None -> 1
  | Some s -> (
    match domains_of_string s with
    | Ok v -> v
    | Error reason ->
      (* a misspelled environment variable must not silently run the
         sequential solver as if nothing happened *)
      Printf.eprintf "warning: POWERRCHOL_DOMAINS ignored: %s\n%!" reason;
      1)

(* The region width, fixed by [set_default_domains] or on first use from
   [recommended_domains]. *)
let default_width : int option ref = ref None

let effective_domains () =
  match !default_width with
  | Some d -> d
  | None ->
    let d = recommended_domains () in
    default_width := Some d;
    d

let set_default_domains d =
  if d < 1 then invalid_arg "Par.set_default_domains: domains must be >= 1";
  default_width := Some d

(* Set while a region fans out. A region opened meanwhile, from inside a
   chunk or from another thread, runs inline, so at most one region's
   domains run at a time. It also keeps one region at a time forking
   from and joining into a domain's Obs store, which every thread of
   that domain shares. *)
let fanning_out = Atomic.make false

(* [run i] for every chunk [i] in [0 .. chunks-1]: chunks 1 and up each on
   a domain of their own, chunk 0 on the caller. Every spawned domain is
   joined before the first failure in chunk order is re-raised; a spawn
   that fails counts as its chunk's failure and spawns no later chunk. *)
let fan_out chunks run =
  let failures = Array.make chunks None in
  let rec spawn i =
    if i = chunks then []
    else
      match Domain.spawn (fun () -> run i) with
      | d -> (i, d) :: spawn (i + 1)
      | exception exn ->
        failures.(i) <- Some exn;
        []
  in
  let spawned = spawn 1 in
  (try run 0 with exn -> failures.(0) <- Some exn);
  List.iter
    (fun (i, d) -> try Domain.join d with exn -> failures.(i) <- Some exn)
    spawned;
  match Array.find_map Fun.id failures with
  | Some exn -> raise exn
  | None -> ()

(* After the join, on the caller: fold the chunk stores in, then record
   each chunk's busy seconds and the region's imbalance, max over mean
   (1.0 is a perfectly balanced region). *)
let join_obs region busy_s =
  Obs.join region;
  Array.iteri
    (fun i s -> Obs.add_absolute (Printf.sprintf "par/busy_s#%d" i) s)
    busy_s;
  let total = Array.fold_left ( +. ) 0.0 busy_s in
  if total > 0.0 then
    Obs.gauge_absolute "par/imbalance"
      (Array.fold_left Float.max 0.0 busy_s
      /. (total /. float_of_int (Array.length busy_s)))

(* Chunks of [ceil (len / width)] indices, the last one shorter; only the
   non-empty ones run, so no spawned domain sits idle. When telemetry is
   on, each chunk records into a store of its own (Obs.fork), which the
   caller folds in after the join. When off, a chunk is the bare call. *)
let parallel_for ~lo ~hi f =
  let len = hi - lo in
  if len > 0 then begin
    let width = effective_domains () in
    let chunk = (len + width - 1) / width in
    let chunks = (len + chunk - 1) / chunk in
    if chunks = 1 || not (Atomic.compare_and_set fanning_out false true)
    then f lo hi
    else
      Fun.protect
        ~finally:(fun () -> Atomic.set fanning_out false)
        (fun () ->
          let region =
            if Obs.enabled () then Some (Obs.fork chunks) else None
          in
          let busy_s = Array.make chunks 0.0 in
          let run i =
            let clo = lo + (i * chunk) in
            let chi = min hi (clo + chunk) in
            match region with
            | None -> f clo chi
            | Some r ->
              Obs.in_chunk r i (fun () ->
                  let t0 = Obs.now () in
                  Fun.protect
                    ~finally:(fun () ->
                      busy_s.(i) <- Float.max (Obs.now () -. t0) 0.0)
                    (fun () -> f clo chi))
          in
          Fun.protect
            ~finally:(fun () ->
              Option.iter (fun r -> join_obs r busy_s) region)
            (fun () -> fan_out chunks run))
  end
