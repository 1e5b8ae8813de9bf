(* A fixed pool of [size - 1] worker domains plus the calling domain.
   Workers park on a per-worker condition variable; [run] hands each
   worker one closure, executes chunk 0 itself, then waits for every
   worker's job slot to drain. Dispatch costs two mutex round-trips per
   worker per parallel region, so regions must be coarse (one chunk per
   domain) — which is exactly how [parallel_for] carves work.

   Worker exceptions are captured and re-raised on the caller after the
   join, so a failing chunk cannot leave the pool wedged. *)

type worker = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable job : (unit -> unit) option;
  mutable stop : bool;
  mutable failure : exn option;
}

type pool = {
  size : int;
  workers : worker array;
  handles : unit Domain.t array;
  mutable live : bool;
  mutable busy : bool;
  (* per-chunk busy seconds for the most recent profiled region; -1.0
     marks a slot whose chunk was empty. Single writer per slot. *)
  busy_s : float array;
  busy_names : string array;
}

let backend = "domains"
let hardware_domains () = Domain.recommended_domain_count ()

let worker_loop w =
  let running = ref true in
  while !running do
    Mutex.lock w.mutex;
    while w.job = None && not w.stop do
      Condition.wait w.cond w.mutex
    done;
    if w.stop then begin
      Mutex.unlock w.mutex;
      running := false
    end
    else begin
      let job = match w.job with Some j -> j | None -> assert false in
      Mutex.unlock w.mutex;
      (try job () with exn -> w.failure <- Some exn);
      Mutex.lock w.mutex;
      w.job <- None;
      Condition.broadcast w.cond;
      Mutex.unlock w.mutex
    end
  done

(* [f i] for every chunk slot [i], slot 0 on the caller *)
let run p f =
  if p.size = 1 then f 0
  else begin
    for i = 1 to p.size - 1 do
      let w = p.workers.(i - 1) in
      Mutex.lock w.mutex;
      w.failure <- None;
      w.job <- Some (fun () -> f i);
      Condition.broadcast w.cond;
      Mutex.unlock w.mutex
    done;
    let caller_failure = (try f 0; None with exn -> Some exn) in
    for i = 1 to p.size - 1 do
      let w = p.workers.(i - 1) in
      Mutex.lock w.mutex;
      while w.job <> None do
        Condition.wait w.cond w.mutex
      done;
      Mutex.unlock w.mutex
    done;
    let failure =
      match caller_failure with
      | Some _ -> caller_failure
      | None ->
        Array.fold_left
          (fun acc w -> match acc with Some _ -> acc | None -> w.failure)
          None p.workers
    in
    match failure with Some exn -> raise exn | None -> ()
  end

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

let create ?domains () =
  let d = match domains with Some d -> d | None -> recommended_domains () in
  if d < 1 then invalid_arg "Par.create: domains must be >= 1";
  let workers =
    Array.init (d - 1) (fun _ ->
        {
          mutex = Mutex.create ();
          cond = Condition.create ();
          job = None;
          stop = false;
          failure = None;
        })
  in
  let handles =
    Array.map (fun w -> Domain.spawn (fun () -> worker_loop w)) workers
  in
  {
    size = d;
    workers;
    handles;
    live = true;
    busy = false;
    busy_s = Array.make d (-1.0);
    busy_names = Array.init d (Printf.sprintf "par/busy_s#%d");
  }

let domains p = p.size

let shutdown p =
  if p.live then begin
    p.live <- false;
    Array.iter
      (fun w ->
        Mutex.lock w.mutex;
        w.stop <- true;
        Condition.broadcast w.cond;
        Mutex.unlock w.mutex)
      p.workers;
    Array.iter Domain.join p.handles
  end

let default_pool : pool option ref = ref None

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
    let p = create () in
    default_pool := Some p;
    p

let set_default_domains d =
  (match !default_pool with Some p -> shutdown p | None -> ());
  default_pool := Some (create ~domains:d ())

let effective_domains () = domains (default ())

(* Worker domains never outlive the process: alcotest runners and the CLI
   both exit through at_exit, which parks-then-joins the default pool. *)
let () =
  at_exit (fun () ->
      match !default_pool with Some p -> shutdown p | None -> ())

let runs_parallel p = domains p > 1 && not p.busy

(* Fan [bounds.(i), bounds.(i+1)) chunks across the pool; [f]
   additionally receives its chunk slot so callers can keep slot-private
   scratch (the blocks phase keeps one factorization workspace per slot).
   When telemetry is on, each chunk records into its own Obs worker store
   (seeded with the caller's span prefix, so merged paths match the
   sequential run) and its busy time is flushed to par/busy_s#<slot>
   afterwards. When off, the closure below is the bare chunk call — a
   single flag read per region. *)
let run_bounds p ~bounds f =
  let d = domains p in
  let obs_on = Obs.enabled () in
  let prefix = if obs_on then Obs.current_prefix () else "" in
  if obs_on then Array.fill p.busy_s 0 d (-1.0);
  p.busy <- true;
  Fun.protect
    ~finally:(fun () -> p.busy <- false)
    (fun () ->
      run p (fun i ->
          let clo = bounds.(i) and chi = bounds.(i + 1) in
          if clo < chi then
            if obs_on then
              Obs.worker_scope ~slot:i ~prefix (fun () ->
                  let t0 = Obs.now () in
                  Fun.protect
                    ~finally:(fun () ->
                      p.busy_s.(i) <- Float.max (Obs.now () -. t0) 0.0)
                    (fun () -> f i clo chi))
            else f i clo chi));
  if obs_on then
    for i = 0 to d - 1 do
      if p.busy_s.(i) >= 0.0 then
        Obs.add_absolute p.busy_names.(i) p.busy_s.(i)
    done

let parallel_for p ~lo ~hi f =
  let len = hi - lo in
  if len > 0 then begin
    let d = domains p in
    if d = 1 || p.busy then f lo hi
    else begin
      let chunk = (len + d - 1) / d in
      let bounds = Array.init (d + 1) (fun i -> min hi (lo + (i * chunk))) in
      run_bounds p ~bounds (fun _ clo chi -> f clo chi)
    end
  end

let parallel_for_weighted p ~weight ~lo ~hi f =
  let len = hi - lo in
  if len > 0 then begin
    let d = domains p in
    if d = 1 || p.busy then f 0 lo hi
    else begin
      (* Chunk boundaries balance the weight prefix sums, not the item
         count: chunk c ends at the first item whose cumulative weight
         reaches c+1 shares of the total. Boundaries depend only on the
         weights, so a run at any domain count sees the same chunks up to
         concatenation. *)
      let total = ref 0.0 in
      for i = lo to hi - 1 do
        let w = weight i in
        if not (w >= 0.0) then
          invalid_arg "Par.parallel_for_weighted: negative weight";
        total := !total +. w
      done;
      let bounds = Array.make (d + 1) hi in
      bounds.(0) <- lo;
      let share = !total /. float_of_int d in
      let acc = ref 0.0 in
      let c = ref 1 in
      for i = lo to hi - 1 do
        acc := !acc +. weight i;
        (* leave at least one item per remaining chunk *)
        if
          !c < d
          && !acc >= (share *. float_of_int !c)
          && i + 1 < hi
          && i + 1 - lo >= !c
        then begin
          bounds.(!c) <- i + 1;
          incr c
        end
      done;
      for c' = !c to d - 1 do
        bounds.(c') <- hi
      done;
      if Obs.enabled () && !total > 0.0 then begin
        let wmax = ref 0.0 in
        for i = 0 to d - 1 do
          let cw = ref 0.0 in
          for q = bounds.(i) to bounds.(i + 1) - 1 do
            cw := !cw +. weight q
          done;
          if !cw > !wmax then wmax := !cw
        done;
        Obs.gauge "par/weighted_imbalance" (!wmax /. share)
      end;
      run_bounds p ~bounds f
    end
  end
