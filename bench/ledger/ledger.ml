(* The repo's benchmark: four workloads that each load a different layer,
   end-to-end metrics from untraced runs, per-layer metrics from a traced
   rerun, and a noise-aware comparison of two sets of runs.

     ledger run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
                [--smoke] [--out FILE]
     ledger compare [--benchmark FILE] PARENT.jsonl CHANGE.jsonl
     ledger smoke [--benchmark FILE]

   [run] prints one "workload metric value unit" line per metric and, as
   its last line, one JSON object with the keys correct, attempted, failed
   and metrics. Without --workload it runs every workload, each in a
   fresh child process so that its peak RSS and GC state are its own.
   --seconds is the run length BENCHMARK.json's command is called with
   (its run_seconds); --smoke shrinks the inputs and the run length for
   the smoke test. --out appends one JSON record per workload run, with
   the hardware it ran on, for [compare]. See README.md. *)

let workloads =
  [
    ("cold-solve", Compute.cold);
    ("warm-rhs", Compute.warm);
    ("eco-storm", Compute.eco);
    ("serve-mix", Serve_mix.run);
  ]

let usage () =
  prerr_string
    "usage: ledger run [--workload W] [--seed S] [--seconds N] [--trace 0|1] \
     [--smoke] [--out FILE]\n\
    \       ledger compare [--benchmark FILE] PARENT.jsonl CHANGE.jsonl\n\
    \       ledger smoke [--benchmark FILE]\n";
  exit 2

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("ledger: " ^ s);
      exit 1)
    fmt

(* ---- JSON helpers ---- *)

module J = Obs.Json

let member k j = match J.member k j with Some v -> v | None -> J.Null
let str = function J.Str s -> s | _ -> ""
let num j = Option.value ~default:nan (J.to_float j)
let items = function J.List l -> l | _ -> []
let fields = function J.Obj l -> l | _ -> []

(* Read to end of file; /proc files report no length up front. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match input ic chunk 0 4096 with
        | 0 -> Buffer.contents buf
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          go ()
      in
      go ())

let parse_json what s =
  match J.parse s with Ok j -> j | Error e -> fail "%s: %s" what e

let last l = match List.rev l with x :: _ -> Some x | [] -> None

(* ---- the hardware a run measured ---- *)

(* The value of the first "key: value" line of [path] named [key]. *)
let proc_field path key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.trim (String.sub l 0 i) = key ->
        Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (String.split_on_char '\n' (read_file path))

(* Processors this process may run on: the popcount of its affinity mask,
   which is what nproc reports. *)
let nproc () =
  let rec bits v = if v = 0 then 0 else (v land 1) + bits (v lsr 1) in
  match proc_field "/proc/self/status" "Cpus_allowed" with
  | None -> 1
  | Some mask ->
    String.fold_left
      (fun acc c ->
        acc
        + Option.fold ~none:0 ~some:bits
            (int_of_string_opt ("0x" ^ String.make 1 c)))
      0 mask

let host () =
  J.Obj
    [
      ("nproc", J.Int (nproc ()));
      ( "cpu",
        J.Str
          (Option.value ~default:"unknown"
             (proc_field "/proc/cpuinfo" "model name")) );
      ("ocaml", J.Str Sys.ocaml_version);
      ("par_backend", J.Str Par.backend);
      ("domains", J.Int (Par.effective_domains ()));
    ]

(* ---- run ---- *)

type opts = {
  workload : string option;
  run : Layers.run;
  out : string option;
}

let parse_run args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest ->
      if not (List.mem_assoc w workloads) then fail "unknown workload %S" w;
      go { o with workload = Some w } rest
    | "--seed" :: s :: rest -> (
      match int_of_string_opt s with
      | Some seed -> go { o with run = { o.run with seed } } rest
      | None -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds > 0.0 ->
        go { o with run = { o.run with seconds } } rest
      | _ -> usage ())
    | "--trace" :: (("0" | "1") as t) :: rest ->
      go { o with run = { o.run with traced = t = "1" } } rest
    | "--smoke" :: rest -> go { o with run = { o.run with smoke = true } } rest
    | "--out" :: f :: rest -> go { o with out = Some f } rest
    | _ -> usage ()
  in
  let o =
    go
      {
        workload = None;
        run = { seed = 1; seconds = 25.0; traced = false; smoke = false };
        out = None;
      }
      args
  in
  if o.run.smoke then { o with run = { o.run with seconds = 0.2 } } else o

let metric_json (m : Layers.metric) =
  ( m.Layers.name,
    J.Obj [ ("value", J.Float m.Layers.value); ("unit", J.Str m.Layers.unit) ]
  )

let result_json ~correct ~attempted ~failed metrics =
  J.Obj
    [
      ("correct", J.Bool correct);
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ("metrics", metrics);
    ]

let append path line =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  output_string oc (line ^ "\n");
  close_out oc

let run_workload o name =
  let run = o.run in
  let started = Unix.gettimeofday () in
  let outcome = (List.assoc name workloads) run in
  let all = outcome.Layers.metrics @ outcome.Layers.extra in
  List.iter
    (fun (m : Layers.metric) ->
      Printf.printf "%s %s %.6g %s\n" name m.Layers.name m.Layers.value
        m.Layers.unit)
    all;
  List.iter
    (fun (m : Layers.metric) ->
      if not (Float.is_finite m.Layers.value) then
        fail "%s: metric %s is not finite" name m.Layers.name)
    outcome.Layers.metrics;
  let correct = outcome.Layers.failed = 0 in
  if run.Layers.traced then begin
    Layers.ensure_out_dir ();
    Spans.write
      (Filename.concat Layers.out_dir
         (Printf.sprintf "%s-seed%d.spans.jsonl" name run.Layers.seed))
  end;
  Option.iter
    (fun path ->
      append path
        (J.to_string
           (J.Obj
              [
                ("workload", J.Str name);
                ("seed", J.Int run.Layers.seed);
                ("traced", J.Bool run.Layers.traced);
                ("smoke", J.Bool run.Layers.smoke);
                ("started", J.Float started);
                ("host", host ());
                ("correct", J.Bool correct);
                ("attempted", J.Int outcome.Layers.attempted);
                ("failed", J.Int outcome.Layers.failed);
                ("metrics", J.Obj (List.map metric_json all));
              ])))
    o.out;
  print_endline
    (J.to_string
       (result_json ~correct ~attempted:outcome.Layers.attempted
          ~failed:outcome.Layers.failed
          (J.Obj (List.map metric_json outcome.Layers.metrics))));
  if not correct then exit 1

(* Run this program again with [args]; returns its stdout lines and
   whether it exited 0. *)
let run_child args =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (out, status = Unix.WEXITED 0)

let child_args o name =
  let run = o.run in
  [
    "run";
    "--workload";
    name;
    "--seed";
    string_of_int run.Layers.seed;
    "--seconds";
    Printf.sprintf "%.17g" run.Layers.seconds;
    "--trace";
    (if run.Layers.traced then "1" else "0");
  ]
  @ (if run.Layers.smoke then [ "--smoke" ] else [])
  @ match o.out with Some f -> [ "--out"; f ] | None -> []

let run_all o =
  let results =
    List.map
      (fun (name, _) ->
        let lines, _ = run_child (child_args o name) in
        match last lines with
        | Some l when String.length l > 0 && l.[0] = '{' ->
          List.iter print_endline
            (List.filteri (fun i _ -> i < List.length lines - 1) lines);
          (name, parse_json name l)
        | _ -> fail "workload %s produced no result" name)
      workloads
  in
  let sum k =
    List.fold_left
      (fun acc (_, j) -> acc + int_of_float (num (member k j)))
      0 results
  in
  let correct =
    List.for_all (fun (_, j) -> member "correct" j = J.Bool true) results
  in
  print_endline
    (J.to_string
       (result_json ~correct ~attempted:(sum "attempted")
          ~failed:(sum "failed")
          (J.Obj
             (List.map
                (fun (name, j) -> (name, member "metrics" j))
                results))));
  if not correct then exit 1

(* ---- BENCHMARK.json ---- *)

type declared = { name : string; unit : string; lower : bool; bound : float }

let declared path key =
  List.map
    (fun m ->
      {
        name = str (member "name" m);
        unit = str (member "unit" m);
        lower = str (member "better" m) = "lower";
        bound = num (member "bound" m);
      })
    (items (member key (parse_json path (read_file path))))

(* ---- smoke ---- *)

(* Every workload at --smoke sizes, untraced and traced: each must pass
   its oracles, print exactly the metrics BENCHMARK.json names, with their
   units, both as a line and in its result, and append its --out record. *)
let smoke benchmark =
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun s -> problems := s :: !problems) fmt
  in
  Layers.ensure_out_dir ();
  let out = Filename.concat Layers.out_dir "smoke.jsonl" in
  if Sys.file_exists out then Sys.remove out;
  let check name traced =
    let mode = if traced then "traced" else "untraced" in
    let expected =
      declared benchmark (if traced then "per_layer" else "end_to_end")
    in
    let lines, exited_ok =
      run_child
        [
          "run";
          "--workload";
          name;
          "--smoke";
          "--trace";
          (if traced then "1" else "0");
          "--out";
          out;
        ]
    in
    let printed d l =
      match String.split_on_char ' ' l with
      | [ w; m; _; u ] -> w = name && m = d.name && u = d.unit
      | _ -> false
    in
    match Option.map J.parse (last lines) with
    | Some (Ok j) ->
      if not exited_ok then problem "%s %s: non-zero exit" name mode;
      if member "correct" j <> J.Bool true || num (member "failed" j) <> 0.0
      then problem "%s %s: oracle failures" name mode;
      let got = fields (member "metrics" j) in
      List.iter
        (fun d ->
          match List.assoc_opt d.name got with
          | None -> problem "%s %s: metric %s missing" name mode d.name
          | Some m ->
            if str (member "unit" m) <> d.unit then
              problem "%s %s: metric %s has unit %S, declared %S" name mode
                d.name
                (str (member "unit" m))
                d.unit;
            if not (Float.is_finite (num (member "value" m))) then
              problem "%s %s: metric %s is not a number" name mode d.name;
            if not (List.exists (printed d) lines) then
              problem "%s %s: no line for %s" name mode d.name)
        expected;
      List.iter
        (fun (k, _) ->
          if not (List.exists (fun d -> d.name = k) expected) then
            problem "%s %s: undeclared metric %s" name mode k)
        got
    | _ -> problem "%s %s: no result line" name mode
  in
  List.iter
    (fun (name, _) ->
      check name false;
      check name true)
    workloads;
  let records =
    if Sys.file_exists out then
      List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file out))
    else []
  in
  if
    List.length records <> 2 * List.length workloads
    || List.exists
         (fun l -> member "host" (parse_json out l) = J.Null)
         records
  then problem "--out records missing or incomplete in %s" out;
  match List.rev !problems with
  | [] -> print_endline "ledger smoke: all workloads passed"
  | ps ->
    List.iter (fun p -> prerr_endline ("ledger smoke: " ^ p)) ps;
    exit 1

(* ---- compare ---- *)

let load_runs path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (parse_json path)
  |> List.filter (fun j ->
         member "traced" j = J.Bool false && member "smoke" j = J.Bool false)

(* The runs of both sides in start order, cut into neighbouring pairs
   (parent run, change run). [None] unless every pair holds one run of
   each side and the side that ran first switches from each pair to the
   next, so that a drift of the machine's speed cannot favour one side. *)
let pairs parent change =
  let tag side = List.map (fun j -> (num (member "started" j), side, j)) in
  let in_order =
    List.sort
      (fun (a, _, _) (b, _, _) -> Float.compare a b)
      (tag `Parent parent @ tag `Change change)
  in
  let rec go prev acc = function
    | [] -> Some (List.rev acc)
    | (_, first, j1) :: (_, second, j2) :: rest
      when first <> second && Some first <> prev ->
      go (Some first)
        ((if first = `Parent then (j1, j2) else (j2, j1)) :: acc)
        rest
    | _ -> None
  in
  go None [] in_order

(* Verdict of one (workload, metric) row by the pairs rule, over the
   values of [parent] and [change] pair by pair: the change is better when
   it wins at least 9 pairs in 10 (ties count for neither) and its median
   moved by more than the parent's interquartile range; worse when its
   median is worse by more than the declared bound; unresolved with fewer
   than ten pairs, runs that did not pair up in alternating order
   ([paired] false), or a parent whose own spread exceeds the bound;
   otherwise the same. *)
let verdict d ~parent ~change ~paired =
  let n = min (Array.length parent) (Array.length change) in
  let better a b = if d.lower then b < a else b > a in
  let mp = Stats.median parent and mc = Stats.median change in
  let wins = ref 0 in
  for i = 0 to n - 1 do
    if better parent.(i) change.(i) then incr wins
  done;
  let worse_by = (if d.lower then mc -. mp else mp -. mc) /. mp in
  if n < 10 || not paired then "unresolved"
  else if
    float_of_int !wins >= 0.9 *. float_of_int n
    && better mp mc
    && Float.abs (mc -. mp) > Stats.iqr parent
  then "better"
  else if worse_by > d.bound then "worse"
  else if Stats.iqr parent /. mp > d.bound then "unresolved"
  else "same"

let compare benchmark parent_path change_path =
  let parent = load_runs parent_path and change = load_runs change_path in
  (match parent @ change with
   | [] -> fail "no untraced runs in %s or %s" parent_path change_path
   | first :: rest ->
     List.iter
       (fun j ->
         if member "host" j <> member "host" first then
           fail "runs differ in host: %s vs %s"
             (J.to_string (member "host" first))
             (J.to_string (member "host" j)))
       rest);
  let any_worse = ref false in
  Printf.printf "%-11s %-12s %5s %12s %12s %12s %12s  %s\n" "workload" "metric"
    "pairs" "parent" "parent_iqr" "change" "change_iqr" "verdict";
  List.iter
    (fun (name, _) ->
      let of_w = List.filter (fun j -> str (member "workload" j) = name) in
      let paired = pairs (of_w parent) (of_w change) in
      let p, c =
        match paired with
        | Some ps -> List.split ps
        | None -> (of_w parent, of_w change)
      in
      let n = match paired with Some ps -> List.length ps | None -> 0 in
      let row metric pv cv v =
        Printf.printf "%-11s %-12s %5d %12.6g %12.6g %12.6g %12.6g  %s\n" name
          metric n (Stats.median pv) (Stats.iqr pv) (Stats.median cv)
          (Stats.iqr cv) v;
        if v = "worse" then any_worse := true
      in
      let values runs metric =
        Array.of_list
          (List.map
             (fun j ->
               num (member "value" (member metric (member "metrics" j))))
             runs)
      in
      if p <> [] && c <> [] then begin
        List.iter
          (fun d ->
            let pv = values p d.name and cv = values c d.name in
            row d.name pv cv
              (verdict d ~parent:pv ~change:cv ~paired:(paired <> None)))
          (declared benchmark "end_to_end");
        (* failures have an absolute bound of zero *)
        let fracs runs =
          Array.of_list
            (List.map
               (fun j ->
                 num (member "failed" j)
                 /. Float.max 1.0 (num (member "attempted" j)))
               runs)
        in
        let mean runs = Stats.mean (fracs runs) in
        row "fail_frac" (fracs p) (fracs c)
          (if mean c > mean p then "worse" else "same")
      end)
    workloads;
  if !any_worse then exit 1

(* ---- main ---- *)

let () =
  let benchmark_of = function
    | "--benchmark" :: f :: rest -> (f, rest)
    | rest -> ("BENCHMARK.json", rest)
  in
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> (
    let o = parse_run args in
    try
      match o.workload with
      | Some w -> run_workload o w
      | None -> run_all o
    with Failure msg | Sys_error msg | Invalid_argument msg -> fail "%s" msg)
  | "compare" :: args -> (
    match benchmark_of args with
    | benchmark, [ a; b ] -> compare benchmark a b
    | _ -> usage ())
  | "smoke" :: args -> (
    match benchmark_of args with
    | benchmark, [] -> smoke benchmark
    | _ -> usage ())
  | _ -> usage ()
