type solution = {
  x : Sparse.Vec.t;
  iterations : int;
  note : string;
}

type rung = {
  name : string;
  solve : Sddm.Problem.t -> solution;
}

type failure =
  | Breakdown of string
  | Unverified of { residual : float; note : string }
  | Crashed of string
  | Timed_out of string
  | Skipped of string

type attempt = {
  rung : string;
  failure : failure;
}

type outcome = {
  x : Sparse.Vec.t option;
  winner : string option;
  iterations : int;
  residual : float;
  note : string;
  attempts : attempt list;
}

let failure_to_string = function
  | Breakdown detail -> "breakdown: " ^ detail
  | Unverified { residual; note } ->
    Printf.sprintf "unverified: true residual %.6e (%s)" residual note
  | Crashed msg -> "crashed: " ^ msg
  | Timed_out detail -> "timed-out: " ^ detail
  | Skipped reason -> "skipped: " ^ reason

let skipped ~rung ~reason = { rung; failure = Skipped reason }

let succeeded o = o.winner <> None

(* The escalation engine: try each rung in order; a rung wins only when its
   solution's TRUE residual (recomputed from scratch, never trusted from the
   solver) meets rtol. Typed breakdown signals from the factorizations and
   any exception a rung leaks are converted into structured trace entries
   and the next rung is tried. Deterministic: no timing, no wall-clock state
   enters the trace. *)
let run ?(rtol = 1e-6) ?deadline ~rungs problem =
  let past_deadline =
    match deadline with
    | None -> fun () -> false
    | Some d -> fun () -> Obs.now () > d
  in
  let classify_exn = function
    | Factor.Rand_chol.Breakdown { column; pivot } ->
      Breakdown
        (Printf.sprintf "randomized-Cholesky pivot %g at column %d" pivot
           column)
    | Factor.Ichol.Breakdown column ->
      Breakdown
        (Printf.sprintf "incomplete-Cholesky nonpositive pivot at column %d"
           column)
    | Failure msg -> Crashed msg
    | Invalid_argument msg -> Crashed msg
    | exn -> raise exn
  in
  let fail attempts a =
    (* each recorded failure is one escalation to the next rung *)
    Obs.count "robust/escalations" 1;
    Obs.count ("robust/failed/" ^ a.rung) 1;
    a :: attempts
  in
  let rec go attempts = function
    | [] ->
      {
        x = None;
        winner = None;
        iterations = 0;
        residual = Float.infinity;
        note = "all rungs exhausted";
        attempts = List.rev attempts;
      }
    | rung :: rest when past_deadline () ->
      (* the budget is gone: record every remaining rung as not-attempted
         and stop escalating — the chain can no longer spin past any
         deadline its caller set *)
      let skipped =
        List.rev_map
          (fun r ->
            {
              rung = r.name;
              failure = Timed_out "deadline expired before attempt";
            })
          (rung :: rest)
      in
      {
        x = None;
        winner = None;
        iterations = 0;
        residual = Float.infinity;
        note = "deadline expired";
        attempts = List.rev_append attempts (List.rev skipped);
      }
    | rung :: rest -> (
      match rung.solve problem with
      | sol ->
        let residual = Sddm.Problem.residual_norm problem sol.x in
        if Float.is_finite residual && residual <= rtol then begin
          Obs.count ("robust/won/" ^ rung.name) 1;
          Obs.gauge "robust/residual" residual;
          {
            x = Some sol.x;
            winner = Some rung.name;
            iterations = sol.iterations;
            residual;
            note = sol.note;
            attempts = List.rev attempts;
          }
        end
        else
          go
            (fail attempts
               {
                 rung = rung.name;
                 failure = Unverified { residual; note = sol.note };
               })
            rest
      | exception exn ->
        go (fail attempts { rung = rung.name; failure = classify_exn exn })
          rest)
  in
  go [] rungs
