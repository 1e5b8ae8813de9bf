(* Observability layer: span nesting/ordering, counter semantics, JSON
   round-trips, the record's JSON fields, and the contract that a
   profiled pipeline solve reports exactly what the PCG result reports —
   including on breakdown paths. *)

let with_obs_enabled f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let span_paths record = List.map (fun s -> s.Obs.path) record.Obs.spans

let find_span record path =
  match List.find_opt (fun s -> s.Obs.path = path) record.Obs.spans with
  | Some s -> s
  | None -> Alcotest.failf "span %S not recorded" path

let counter record name =
  match List.assoc_opt name record.Obs.counters with
  | Some v -> v
  | None -> Alcotest.failf "counter %S not recorded" name

let meta_int record key =
  match List.assoc_opt key record.Obs.meta with
  | Some (Obs.Json.Int i) -> i
  | _ -> Alcotest.failf "meta %S missing or not an int" key

let meta_str record key =
  match List.assoc_opt key record.Obs.meta with
  | Some (Obs.Json.Str s) -> s
  | _ -> Alcotest.failf "meta %S missing or not a string" key

(* ---- spans ---- *)

let test_span_nesting_and_order () =
  with_obs_enabled @@ fun () ->
  let spin () =
    (* measurable but fast busy work *)
    let acc = ref 0.0 in
    for i = 1 to 10_000 do
      acc := !acc +. sqrt (float_of_int i)
    done;
    ignore (Sys.opaque_identity !acc)
  in
  Obs.span "a" (fun () ->
      spin ();
      Obs.span "b" (fun () -> spin ()));
  Obs.span "c" (fun () -> spin ());
  Obs.span "a" (fun () -> spin ());
  let r = Obs.capture () in
  Alcotest.(check (list string))
    "paths in first-entered order, nested under parents"
    [ "a"; "a/b"; "c" ] (span_paths r);
  let a = find_span r "a" and b = find_span r "a/b" and c = find_span r "c" in
  Alcotest.(check int) "a entered twice" 2 a.Obs.calls;
  Alcotest.(check int) "b entered once" 1 b.Obs.calls;
  Alcotest.(check int) "c entered once" 1 c.Obs.calls;
  Alcotest.(check bool) "all spans nonnegative" true
    (List.for_all (fun s -> s.Obs.seconds >= 0.0) r.Obs.spans);
  Alcotest.(check bool) "child time within parent time" true
    (b.Obs.seconds <= a.Obs.seconds)

let test_span_exception_still_recorded () =
  with_obs_enabled @@ fun () ->
  (try Obs.span "boom" (fun () -> failwith "no") with Failure _ -> ());
  let r = Obs.capture () in
  let s = find_span r "boom" in
  Alcotest.(check int) "call counted despite exception" 1 s.Obs.calls;
  (* the stack must have been popped: a following span is top-level *)
  Obs.span "after" (fun () -> ());
  Alcotest.(check (list string))
    "stack unwound after exception" [ "boom"; "after" ]
    (span_paths (Obs.capture ()))

let test_disabled_is_transparent () =
  Obs.reset ();
  Obs.set_enabled false;
  let v = Obs.span "ghost" (fun () -> 42) in
  Obs.count "ghost_counter" 7;
  Obs.record_span "ghost2" ~seconds:1.0 ~calls:1;
  Alcotest.(check int) "span returns the value" 42 v;
  let r = Obs.capture () in
  Alcotest.(check int) "no spans recorded" 0 (List.length r.Obs.spans);
  Alcotest.(check int) "no counters recorded" 0 (List.length r.Obs.counters)

let test_record_span_prefixes () =
  with_obs_enabled @@ fun () ->
  Obs.span "outer" (fun () ->
      Obs.record_span "inner" ~seconds:0.25 ~calls:3);
  let r = Obs.capture () in
  let s = find_span r "outer/inner" in
  Alcotest.(check int) "aggregated calls" 3 s.Obs.calls;
  Test_util.check_float "aggregated seconds" 0.25 s.Obs.seconds

(* ---- counters ---- *)

let test_counter_monotonic () =
  with_obs_enabled @@ fun () ->
  let value () = counter (Obs.capture ()) "edges" in
  Obs.count "edges" 3;
  let v1 = value () in
  Obs.count "edges" 4;
  let v2 = value () in
  Obs.count "edges" 0;
  let v3 = value () in
  Test_util.check_float "first add" 3.0 v1;
  Test_util.check_float "accumulates" 7.0 v2;
  Test_util.check_float "zero add is a no-op" 7.0 v3;
  Alcotest.(check bool) "monotone" true (v1 <= v2 && v2 <= v3);
  Obs.gauge "ratio" 1.5;
  Obs.gauge "ratio" 0.5;
  Test_util.check_float "gauge overwrites" 0.5
    (counter (Obs.capture ()) "ratio")

let test_foreign_domain_records_apart () =
  (* a domain Par did not spawn records into a store of its own, so the
     caller's record does not see it *)
  with_obs_enabled @@ fun () ->
  Obs.span "mine" (fun () -> Obs.count "calls" 1);
  let before = Obs.capture () in
  Domain.join
    (Domain.spawn (fun () ->
         Obs.span "theirs" (fun () -> Obs.count "calls" 1);
         Obs.observe "theirs_seconds" 0.5));
  Alcotest.(check bool) "caller's record unchanged" true
    (Obs.capture () = before)

(* ---- JSON ---- *)

let test_json_unicode_escapes () =
  let parse_str s =
    match Obs.Json.parse s with
    | Ok (Obs.Json.Str v) -> v
    | Ok _ -> Alcotest.failf "expected a string from %s" s
    | Error msg -> Alcotest.failf "parse %s failed: %s" s msg
  in
  (* \uXXXX escapes must decode to real UTF-8 bytes, not '?' *)
  Alcotest.(check string) "2-byte (U+00E9)" "\xc3\xa9" (parse_str "\"\\u00e9\"");
  Alcotest.(check string) "3-byte (U+4E2D)" "\xe4\xb8\xad"
    (parse_str "\"\\u4e2d\"");
  Alcotest.(check string) "surrogate pair (U+1F600)" "\xf0\x9f\x98\x80"
    (parse_str "\"\\ud83d\\ude00\"");
  Alcotest.(check string) "ascii escape" "\x0b" (parse_str "\"\\u000b\"");
  (* lone surrogates decode to U+FFFD instead of corrupting the string *)
  Alcotest.(check string) "lone high surrogate" "\xef\xbf\xbdx"
    (parse_str "\"\\ud800x\"");
  Alcotest.(check string) "lone low surrogate" "\xef\xbf\xbd"
    (parse_str "\"\\udc00\"");
  (* malformed hex must be a parse error, not silently accepted *)
  (match Obs.Json.parse "\"\\u00+9\"" with
   | Ok _ -> Alcotest.fail "expected parse error on bad hex digits"
   | Error _ -> ());
  (* control characters are emitted as \uXXXX and round trip *)
  let ctl = Obs.Json.Str "a\001b" in
  let s = Obs.Json.to_string ctl in
  Alcotest.(check bool) "control char escaped on emit" true
    (String.length s >= 6
    && (let rec has i =
          i + 6 <= String.length s && (String.sub s i 6 = "\\u0001" || has (i + 1))
        in
        has 0));
  (match Obs.Json.parse s with
   | Ok v -> Alcotest.(check bool) "control char round trip" true (v = ctl)
   | Error msg -> Alcotest.failf "reparse failed: %s" msg);
  (* raw multibyte UTF-8 passes through emit/parse unchanged *)
  let multi = Obs.Json.Str "caf\xc3\xa9 \xe4\xb8\xad \xf0\x9f\x98\x80" in
  match Obs.Json.parse (Obs.Json.to_string multi) with
  | Ok v -> Alcotest.(check bool) "utf-8 passthrough" true (v = multi)
  | Error msg -> Alcotest.failf "reparse failed: %s" msg

let test_json_value_round_trip () =
  let j =
    Obs.Json.Obj
      [
        ("s", Obs.Json.Str "a \"quoted\"\nline");
        ("i", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 0.1);
        ("whole", Obs.Json.Float 2.0);
        ("b", Obs.Json.Bool true);
        ("z", Obs.Json.Null);
        ("l", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Str "x" ]);
        ("empty", Obs.Json.Obj []);
      ]
  in
  (match Obs.Json.parse (Obs.Json.to_string j) with
   | Ok j' -> Alcotest.(check bool) "compact round trip" true (j = j')
   | Error msg -> Alcotest.failf "parse failed: %s" msg);
  (match Obs.Json.parse (Obs.Json.to_string ~indent:true j) with
   | Ok j' -> Alcotest.(check bool) "indented round trip" true (j = j')
   | Error msg -> Alcotest.failf "parse failed: %s" msg);
  match Obs.Json.parse "{\"unterminated\": " with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error _ -> ()

let test_record_json_fields () =
  let r =
    with_obs_enabled @@ fun () ->
    Obs.span "reorder" (fun () -> ());
    Obs.span "factor" (fun () -> Obs.record_span "sort" ~seconds:0.125 ~calls:9);
    Obs.count "factor/sampled_edges" 12345;
    Obs.gauge "precond_nnz_ratio" 1.0625;
    List.iter (Obs.observe "solve_seconds") [ 0.002; 0.004; 0.008; 0.016 ];
    Obs.capture
      ~meta:
        [
          ("case", Obs.Json.Str "pg01");
          ("n", Obs.Json.Int 3825);
          ("relres", Obs.Json.Float 5.25e-7);
          ("converged", Obs.Json.Bool true);
        ]
      ()
  in
  let j = Obs.record_to_json r in
  let field key =
    match Obs.Json.member key j with
    | Some v -> v
    | None -> Alcotest.failf "record JSON lacks %S" key
  in
  let json =
    Alcotest.testable
      (fun ppf j -> Format.pp_print_string ppf (Obs.Json.to_string j))
      ( = )
  in
  Alcotest.check json "schema tag" (Obs.Json.Str "powerrchol-telemetry/v2")
    (field "schema");
  Alcotest.check json "meta, in order"
    (Obs.Json.Obj
       [
         ("case", Obs.Json.Str "pg01");
         ("n", Obs.Json.Int 3825);
         ("relres", Obs.Json.Float 5.25e-7);
         ("converged", Obs.Json.Bool true);
       ])
    (field "meta");
  let spans =
    match field "spans" with
    | Obs.Json.List items -> items
    | _ -> Alcotest.fail "spans is not a list"
  in
  Alcotest.(check (list string)) "span paths, first-entered order"
    [ "reorder"; "factor"; "factor/sort" ]
    (List.map
       (fun s ->
         match Obs.Json.member "path" s with
         | Some (Obs.Json.Str p) -> p
         | _ -> Alcotest.fail "span without a path")
       spans);
  Alcotest.check json "span seconds and calls"
    (Obs.Json.Obj
       [
         ("path", Obs.Json.Str "factor/sort");
         ("seconds", Obs.Json.Float 0.125);
         ("calls", Obs.Json.Int 9);
       ])
    (List.nth spans 2);
  Alcotest.check json "counters, in order"
    (Obs.Json.Obj
       [
         ("factor/sampled_edges", Obs.Json.Float 12345.0);
         ("precond_nnz_ratio", Obs.Json.Float 1.0625);
       ])
    (field "counters");
  match Obs.Json.member "solve_seconds" (field "hists") with
  | Some h -> (
    match Obs.Hist.of_json h with
    | Ok h ->
      Alcotest.(check int) "histogram count" 4 (Obs.Hist.count h);
      Test_util.check_float "histogram max" 0.016 (Obs.Hist.max_value h)
    | Error msg -> Alcotest.failf "histogram JSON unreadable: %s" msg)
  | None -> Alcotest.fail "hists lacks solve_seconds"

let test_record_text_render () =
  let r =
    with_obs_enabled @@ fun () ->
    Obs.span "pcg" (fun () -> Obs.count "iterations" 20);
    Obs.capture ~meta:[ ("solver", Obs.Json.Str "powerrchol") ] ()
  in
  let text = Obs.record_to_text r in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "text mentions %s" needle)
        true
        (let n = String.length text and m = String.length needle in
         let rec go i =
           i + m <= n && (String.sub text i m = needle || go (i + 1))
         in
         go 0))
    [ "powerrchol"; "pcg"; "pcg/iterations"; "20" ]

(* ---- histograms ---- *)

let test_hist_percentiles () =
  let h = Obs.Hist.create () in
  for i = 1 to 1000 do
    Obs.Hist.add h (float_of_int i *. 1e-3)
  done;
  Alcotest.(check int) "count" 1000 (Obs.Hist.count h);
  Test_util.check_float "min" 1e-3 (Obs.Hist.min_value h);
  Test_util.check_float "max" 1.0 (Obs.Hist.max_value h);
  (* quarter-octave buckets are ~19% wide; the nearest-rank answer sits
     within half a bucket (~9%) of the true order statistic *)
  let check_pct p expect =
    let got = Obs.Hist.percentile h p in
    Alcotest.(check bool)
      (Printf.sprintf "p%.0f %.4f within 15%% of %.4f" p got expect)
      true
      (Float.abs (got -. expect) <= 0.15 *. expect)
  in
  check_pct 50.0 0.5;
  check_pct 95.0 0.95;
  check_pct 99.0 0.99;
  (* p100 clamps to the observed max exactly *)
  Test_util.check_float "p100 = max" 1.0 (Obs.Hist.percentile h 100.0);
  (* non-finite samples are ignored *)
  Obs.Hist.add h nan;
  Obs.Hist.add h infinity;
  Alcotest.(check int) "non-finite ignored" 1000 (Obs.Hist.count h);
  (* empty histogram: nan percentile, {"count":0} serialization *)
  let e = Obs.Hist.create () in
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Obs.Hist.percentile e 50.0));
  match Obs.Hist.of_json (Obs.Hist.to_json e) with
  | Ok e' -> Alcotest.(check int) "empty round trip" 0 (Obs.Hist.count e')
  | Error msg -> Alcotest.failf "empty hist round trip failed: %s" msg

let test_hist_merge_associative () =
  let mk seed lo hi =
    let h = Obs.Hist.create () in
    let rng = Rng.create seed in
    for _ = 1 to 200 do
      Obs.Hist.add h (lo +. (Rng.float rng *. (hi -. lo)))
    done;
    h
  in
  let a = mk 1 1e-6 1e-3 and b = mk 2 1e-4 1e-1 and c = mk 3 1e-2 10.0 in
  let l = Obs.Hist.merge (Obs.Hist.merge a b) c in
  let r = Obs.Hist.merge a (Obs.Hist.merge b c) in
  (* only int bucket counts and exact min/max are stored, so the merge is
     exactly associative: identical JSON, not just close percentiles *)
  Alcotest.(check string) "associative (bit-identical serialization)"
    (Obs.Json.to_string (Obs.Hist.to_json l))
    (Obs.Json.to_string (Obs.Hist.to_json r));
  Alcotest.(check int) "merged count" 600 (Obs.Hist.count l);
  (* merge is pure: inputs unchanged *)
  Alcotest.(check int) "input a unchanged" 200 (Obs.Hist.count a);
  (* round trip of a populated histogram *)
  match Obs.Hist.of_json (Obs.Hist.to_json l) with
  | Ok l' ->
    Alcotest.(check string) "populated hist round trip"
      (Obs.Json.to_string (Obs.Hist.to_json l))
      (Obs.Json.to_string (Obs.Hist.to_json l'))
  | Error msg -> Alcotest.failf "hist round trip failed: %s" msg

let test_observe_reaches_capture () =
  with_obs_enabled @@ fun () ->
  Obs.span "solve_many" (fun () ->
      List.iter (Obs.observe "solve_seconds") [ 0.001; 0.002; 0.004 ]);
  let r = Obs.capture () in
  match List.assoc_opt "solve_many/solve_seconds" r.Obs.hists with
  | Some h ->
    Alcotest.(check int) "hist count" 3 (Obs.Hist.count h);
    Test_util.check_float "hist max" 0.004 (Obs.Hist.max_value h)
  | None -> Alcotest.fail "solve_many/solve_seconds histogram not captured"

let test_hist_single_sample_and_sinks () =
  (* one sample: every percentile is that sample, exactly (clamped to
     the observed min/max, not a bucket edge) *)
  let h = Obs.Hist.create () in
  Obs.Hist.add h 0.0123;
  List.iter
    (fun p ->
      Test_util.check_float
        (Printf.sprintf "p%.0f of a single sample" p)
        0.0123 (Obs.Hist.percentile h p))
    [ 0.0; 50.0; 99.0; 100.0 ];
  (* overflow sink: values past the top edge land in the last bucket,
     whose upper edge reports +inf; percentiles still clamp to the true
     observed max, not to infinity *)
  let o = Obs.Hist.create () in
  Obs.Hist.add o 1e60;
  Obs.Hist.add o 2e60;
  Alcotest.(check int) "overflow count" 2 (Obs.Hist.count o);
  Test_util.check_float "overflow max is exact" 2e60 (Obs.Hist.max_value o);
  Alcotest.(check bool) "overflow percentile finite" true
    (Float.is_finite (Obs.Hist.percentile o 99.0));
  (* underflow sink symmetrically *)
  let u = Obs.Hist.create () in
  Obs.Hist.add u 1e-50;
  Test_util.check_float "underflow min is exact" 1e-50 (Obs.Hist.min_value u);
  Test_util.check_float "underflow percentile clamps" 1e-50
    (Obs.Hist.percentile u 50.0);
  (* bucket_counts lists only occupied buckets, in ascending order, and
     their totals add back to count *)
  let m = Obs.Hist.create () in
  List.iter (Obs.Hist.add m) [ 1e-4; 1e-2; 1.0; 1.0; 1e60 ];
  let bc = Obs.Hist.bucket_counts m in
  Alcotest.(check bool) "buckets ascending" true
    (List.sort compare bc = bc);
  Alcotest.(check int) "bucket totals = count" (Obs.Hist.count m)
    (List.fold_left (fun a (_, c) -> a + c) 0 bc);
  List.iter
    (fun (i, _) ->
      Alcotest.(check bool) "upper edge positive" true
        (Obs.Hist.bucket_upper_edge i > 0.0))
    bc

let qcheck_hist_merge_laws =
  let open QCheck in
  let samples = small_list (map Float.abs float) in
  let hist_of xs =
    let h = Obs.Hist.create () in
    List.iter (Obs.Hist.add h) xs;
    h
  in
  let ser h = Obs.Json.to_string (Obs.Hist.to_json h) in
  [
    Test.make ~count:200 ~name:"hist merge is associative"
      (triple samples samples samples)
      (fun (a, b, c) ->
        let ha = hist_of a and hb = hist_of b and hc = hist_of c in
        ser (Obs.Hist.merge (Obs.Hist.merge ha hb) hc)
        = ser (Obs.Hist.merge ha (Obs.Hist.merge hb hc)));
    Test.make ~count:200 ~name:"hist merge is commutative"
      (pair samples samples)
      (fun (a, b) ->
        let ha = hist_of a and hb = hist_of b in
        ser (Obs.Hist.merge ha hb) = ser (Obs.Hist.merge hb ha));
    Test.make ~count:200 ~name:"empty hist is a merge identity" samples
      (fun a ->
        let ha = hist_of a in
        ser (Obs.Hist.merge ha (Obs.Hist.create ())) = ser ha);
  ]

(* ---- rolling windows ---- *)

let test_window_sums_and_rollover () =
  let w = Obs.Window.create () in
  let t0 = 1_000_000.0 in
  Obs.Window.add ~now:t0 w 3.0;
  Obs.Window.add ~now:t0 w 2.0;
  Obs.Window.add ~now:(t0 +. 30.0) w 5.0;
  (* both bursts inside the minute *)
  Test_util.check_float "1m sum sees both bursts" 10.0
    (Obs.Window.sum ~now:(t0 +. 30.0) w ~span_s:60.0);
  Test_util.check_float "1m rate" (10.0 /. 60.0)
    (Obs.Window.rate ~now:(t0 +. 30.0) w ~span_s:60.0);
  (* 65 s later the first burst has aged out of the minute but not the
     five-minute window *)
  Test_util.check_float "old burst aged out of 1m" 5.0
    (Obs.Window.sum ~now:(t0 +. 65.0) w ~span_s:60.0);
  Test_util.check_float "still inside 5m" 10.0
    (Obs.Window.sum ~now:(t0 +. 65.0) w ~span_s:300.0);
  (* ring rollover: 181 slots of 5 s span 905 s, so a write 905 s later
     lands in the same slot — the stale epoch must be zeroed, not
     accumulated *)
  let r = Obs.Window.create () in
  Obs.Window.add ~now:1000.0 r 7.0;
  Obs.Window.add ~now:1905.0 r 1.0;
  Test_util.check_float "stale slot zeroed on rollover" 1.0
    (Obs.Window.sum ~now:1905.0 r ~span_s:905.0);
  (* queries never read slots older than their epoch: a stale ring with
     no fresh writes sums to zero *)
  Test_util.check_float "stale ring reads zero" 0.0
    (Obs.Window.sum ~now:5000.0 r ~span_s:905.0)

let test_window_hist_merged () =
  let wh = Obs.Window.create_hist () in
  let t0 = 2_000.0 in
  Obs.Window.observe ~now:t0 wh 0.001;
  Obs.Window.observe ~now:t0 wh 0.002;
  Obs.Window.observe ~now:(t0 +. 15.0) wh 0.004;
  let h = Obs.Window.merged ~now:(t0 +. 15.0) wh ~span_s:25.0 in
  Alcotest.(check int) "merged window sees all three" 3 (Obs.Hist.count h);
  Test_util.check_float "merged max" 0.004 (Obs.Hist.max_value h);
  (* a narrower span drops the older slot *)
  let recent = Obs.Window.merged ~now:(t0 +. 15.0) wh ~span_s:10.0 in
  Alcotest.(check int) "narrow window sees one" 1 (Obs.Hist.count recent);
  (* 905 s later the ring (181 slots of 5 s) has wrapped onto t0's slot:
     its samples are gone, the one 15 s after it is still inside *)
  Obs.Window.observe ~now:(t0 +. 905.0) wh 0.008;
  let later = Obs.Window.merged ~now:(t0 +. 905.0) wh ~span_s:905.0 in
  Alcotest.(check int) "wrapped ring forgets" 2 (Obs.Hist.count later);
  Test_util.check_float "oldest samples gone" 0.004
    (Obs.Hist.min_value later)

(* ---- Prometheus exposition ---- *)

let test_prom_render_and_validate () =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.add h) [ 0.001; 0.002; 0.002; 0.004; 0.5 ];
  let metrics =
    [
      Obs.Prom.Counter
        { name = "test_requests_total"; help = "requests"; value = 42.0 };
      Obs.Prom.Gauge
        { name = "test_inflight"; help = "in flight"; value = 3.0 };
      Obs.Prom.Gauge
        { name = "test_last_residual"; help = "may be NaN"; value = Float.nan };
      Obs.Prom.Histogram
        { name = "test_latency_seconds"; help = "latency"; hist = h };
    ]
  in
  let text = Obs.Prom.render metrics in
  (match Obs.Prom.validate text with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "bundled validator rejected own render: %s" e);
  let lines = String.split_on_char '\n' text in
  let has prefix =
    List.exists
      (fun l ->
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      lines
  in
  Alcotest.(check bool) "TYPE for the counter" true
    (has "# TYPE test_requests_total counter");
  Alcotest.(check bool) "NaN gauge rendered" true (has "test_last_residual NaN");
  Alcotest.(check bool) "+Inf bucket present" true
    (has "test_latency_seconds_bucket{le=\"+Inf\"} 5");
  Alcotest.(check bool) "_count matches" true (has "test_latency_seconds_count 5");
  (* cumulative bucket counts are non-decreasing in le *)
  let bucket_counts =
    List.filter_map
      (fun l ->
        let p = "test_latency_seconds_bucket{" in
        if
          String.length l > String.length p
          && String.sub l 0 (String.length p) = p
        then
          match String.rindex_opt l ' ' with
          | Some i ->
            float_of_string_opt
              (String.sub l (i + 1) (String.length l - i - 1))
          | None -> None
        else None)
      lines
  in
  Alcotest.(check bool) "buckets cumulative non-decreasing" true
    (List.sort compare bucket_counts = bucket_counts);
  (* metric_name maps Obs paths onto the legal alphabet *)
  Alcotest.(check string) "path sanitized" "robust_won_jacobi_pcg"
    (Obs.Prom.metric_name "robust/won/jacobi-pcg");
  Alcotest.(check bool) "leading digit escaped" true
    (String.get (Obs.Prom.metric_name "1m") 0 <> '1')

let test_prom_validator_rejects_malformed () =
  let expect_error what doc =
    match Obs.Prom.validate doc with
    | Ok _ -> Alcotest.failf "validator accepted %s" what
    | Error _ -> ()
  in
  expect_error "samples before TYPE"
    "test_total 1\n# TYPE test_total counter\n";
  expect_error "illegal metric name" "# TYPE 9bad counter\n9bad 1\n";
  expect_error "unquoted label value"
    "# TYPE t_bucket histogram\nt_bucket{le=+Inf} 1\nt_count 1\n";
  expect_error "non-numeric sample" "# TYPE t counter\nt pineapple\n";
  expect_error "decreasing histogram buckets"
    "# TYPE t histogram\n\
     t_bucket{le=\"0.1\"} 5\n\
     t_bucket{le=\"1\"} 3\n\
     t_bucket{le=\"+Inf\"} 5\n\
     t_sum 1\n\
     t_count 5\n";
  expect_error "+Inf bucket disagrees with _count"
    "# TYPE t histogram\n\
     t_bucket{le=\"+Inf\"} 4\n\
     t_sum 1\n\
     t_count 5\n"

let test_record_nan_counter_as_null () =
  (* JSON has no NaN: a non-finite gauge is written as null, and the
     serialized text carries a real null token *)
  let r =
    with_obs_enabled @@ fun () ->
    Obs.gauge "residual" Float.nan;
    Obs.count "requests" 3;
    Obs.capture ()
  in
  let text = Obs.Json.to_string (Obs.record_to_json r) in
  match Obs.Json.parse text with
  | Error e -> Alcotest.failf "serialized record does not parse: %s" e
  | Ok j ->
    let counters = Option.get (Obs.Json.member "counters" j) in
    Alcotest.(check bool) "NaN gauge written as null" true
      (Obs.Json.member "residual" counters = Some Obs.Json.Null);
    Alcotest.(check bool) "finite counter written as a number" true
      (Obs.Json.member "requests" counters = Some (Obs.Json.Float 3.0))

(* ---- tracing ---- *)

let with_tracing f =
  Obs.reset ();
  Obs.set_enabled true;
  Obs.set_tracing true;
  Fun.protect ~finally:(fun () ->
      Obs.set_tracing false;
      Obs.set_enabled false;
      Obs.reset ())
    f

let check_track_invariants events =
  (* per track: balanced B/E with matching names, non-decreasing ts *)
  let tracks = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let st =
        match Hashtbl.find_opt tracks e.Obs.Trace.track with
        | Some st -> st
        | None ->
          let st = (ref [], ref neg_infinity) in
          Hashtbl.add tracks e.Obs.Trace.track st;
          st
      in
      let stack, last_ts = st in
      Alcotest.(check bool)
        (Printf.sprintf "ts monotonic on track %d" e.Obs.Trace.track)
        true
        (e.Obs.Trace.ts >= !last_ts);
      last_ts := e.Obs.Trace.ts;
      match e.Obs.Trace.phase with
      | 'B' -> stack := e.Obs.Trace.name :: !stack
      | 'E' -> (
        match !stack with
        | top :: rest ->
          Alcotest.(check string) "E matches innermost B" top
            e.Obs.Trace.name;
          stack := rest
        | [] -> Alcotest.fail "E event with no open B")
      | 'C' -> ()
      | c -> Alcotest.failf "unexpected phase %c" c)
    events;
  Hashtbl.iter
    (fun track (stack, _) ->
      Alcotest.(check (list string))
        (Printf.sprintf "track %d ends with empty stack" track)
        [] !stack)
    tracks

let test_trace_well_formed () =
  with_tracing @@ fun () ->
  Obs.span "outer" (fun () ->
      Obs.span "inner" (fun () -> Obs.trace_counter "residual" 0.5);
      Obs.trace_counter "residual" 0.25);
  (* an exception inside a span must still emit the matching E *)
  (try Obs.span "boom" (fun () -> failwith "no") with Failure _ -> ());
  let events = Obs.Trace.events () in
  Alcotest.(check bool) "events recorded" true (List.length events >= 8);
  check_track_invariants events;
  Alcotest.(check int) "nothing dropped" 0 (Obs.Trace.dropped ());
  (match Obs.Trace.validate (Obs.Trace.to_json ()) with
   | Ok _ -> ()
   | Error msg -> Alcotest.failf "validate rejected a good trace: %s" msg);
  (* the validator must reject a hand-broken trace *)
  let broken =
    Obs.Json.Obj
      [
        ( "traceEvents",
          Obs.Json.List
            [
              Obs.Json.Obj
                [
                  ("ph", Obs.Json.Str "B");
                  ("name", Obs.Json.Str "orphan");
                  ("ts", Obs.Json.Float 0.0);
                  ("pid", Obs.Json.Int 1);
                  ("tid", Obs.Json.Int 0);
                ];
            ] );
      ]
  in
  match Obs.Trace.validate broken with
  | Ok _ -> Alcotest.fail "validate accepted an unbalanced trace"
  | Error _ -> ()

let test_trace_overflow_stays_balanced () =
  (* With a tiny ring buffer most spans are dropped, but dropping must
     never unbalance the surviving B/E pairs. *)
  Obs.Trace.set_capacity 0 (* clamps to the 256 floor *);
  Fun.protect ~finally:(fun () -> Obs.Trace.set_capacity 65536)
  @@ fun () ->
  with_tracing @@ fun () ->
  for i = 0 to 999 do
    Obs.span (Printf.sprintf "s%d" (i mod 7)) (fun () ->
        Obs.trace_counter "v" (float_of_int i))
  done;
  Alcotest.(check bool) "overflow dropped events" true
    (Obs.Trace.dropped () > 0);
  check_track_invariants (Obs.Trace.events ());
  match Obs.Trace.validate (Obs.Trace.to_json ()) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "overflowed trace invalid: %s" msg

(* ---- disabled-path cost ---- *)

let test_disabled_path_allocates_nothing () =
  Obs.reset ();
  Obs.set_enabled false;
  let work = Sys.opaque_identity (fun () -> 17) in
  (* warm up so any one-time lazy setup is excluded from the measurement *)
  ignore (Obs.span "warm" work);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Obs.span "ghost" work);
    Obs.count "c" 3;
    Obs.gauge "g" 1.5;
    Obs.observe "o" 0.25;
    Obs.record_span "r" ~seconds:0.5 ~calls:2;
    Obs.trace_counter "t" 0.125
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "disabled path allocated %.0f minor words" delta)
    true (delta < 256.0)

(* ---- gauge semantics in the ordering layer ---- *)

let test_degree_sort_gauges_not_additive () =
  (* max_degree describes the graph, so preparing twice in one profiled
     region must report the same value as preparing once (it regressed to
     2x under Obs.count). *)
  let g = Test_util.mesh_graph 9 9 in
  let once =
    with_obs_enabled @@ fun () ->
    ignore (Ordering.Degree_sort.order g);
    counter (Obs.capture ()) "degree_sort/max_degree"
  in
  let twice =
    with_obs_enabled @@ fun () ->
    ignore (Ordering.Degree_sort.order g);
    ignore (Ordering.Degree_sort.order g);
    counter (Obs.capture ()) "degree_sort/max_degree"
  in
  Alcotest.(check bool) "max_degree positive" true (once > 0.0);
  Test_util.check_float "gauge not doubled by repeated ordering" once twice

(* ---- profiled solves ---- *)

let grid_problem () =
  let g = Test_util.mesh_graph 12 12 in
  let n = 144 in
  let d = Array.make n 0.0 in
  d.(0) <- 1.0;
  d.(n - 1) <- 0.5;
  let rng = Rng.create 11 in
  let b = Sparse.Vec.init n (fun _ -> Rng.float rng -. 0.5) in
  Sddm.Problem.of_graph ~name:"obs-mesh" ~graph:g ~d ~b

(* The profiled one-shot solve: the plain Solver.run under Solver.with_obs. *)
let profiled_run ?rtol problem =
  Powerrchol.Solver.with_obs
    ~meta_of:(Powerrchol.Solver.result_meta problem)
    (fun () ->
      Powerrchol.Solver.run ?rtol (Powerrchol.Solver.powerrchol ()) problem)

let test_profiled_solve_matches_result () =
  let problem = grid_problem () in
  let r, record = profiled_run ~rtol:1e-8 problem in
  Alcotest.(check bool) "solve converged" true r.Powerrchol.Solver.converged;
  Alcotest.(check int) "meta iterations = result iterations"
    r.Powerrchol.Solver.iterations (meta_int record "iterations");
  Alcotest.(check string) "meta status = result status"
    (Krylov.Pcg.status_to_string r.Powerrchol.Solver.status)
    (meta_str record "status");
  Test_util.check_float "pcg/iterations counter agrees"
    (float_of_int r.Powerrchol.Solver.iterations)
    (counter record "pcg/iterations");
  (* the three top-level phase spans exist and cover the total time *)
  let top = [ "reorder"; "factor"; "pcg" ] in
  List.iter (fun p -> ignore (find_span record p)) top;
  let span_sum =
    List.fold_left (fun acc p -> acc +. (find_span record p).Obs.seconds) 0.0
      top
  in
  Alcotest.(check bool) "phase spans cover total solve time" true
    (Float.abs (span_sum -. r.Powerrchol.Solver.t_total)
    <= (0.10 *. r.Powerrchol.Solver.t_total) +. 0.005);
  (* preconditioner size ratio recorded and sane for a mesh *)
  let ratio = counter record "precond_nnz_ratio" in
  Alcotest.(check bool) "nnz ratio in a sane band" true
    (ratio > 0.1 && ratio < 10.0);
  Alcotest.(check bool) "sampling counters present" true
    (List.exists
       (fun (k, _) -> k = "factor/lt_rchol/sampled_edges")
       record.Obs.counters);
  (* the factorization's allocation sits beside its time: a positive
     count of minor words, a few per column with the timers included *)
  let words = counter record "factor/lt_rchol/factor_minor_words" in
  Alcotest.(check bool)
    (Printf.sprintf "factor_minor_words recorded (%.0f words, 144 columns)"
       words)
    true
    (words > 0.0 && words < 64.0 *. 144.0);
  (* profiling must leave the global layer off afterwards *)
  Alcotest.(check bool) "obs disabled after profiled run" false (Obs.enabled ())

let test_randomized_solvers_name_their_factorization () =
  (* every randomized solver's profile carries its factorization's span,
     as powerrchol's carries factor/lt_rchol *)
  let problem = grid_problem () in
  List.iter
    (fun (solver, prefix) ->
      let _, record =
        Powerrchol.Solver.with_obs
          ~meta_of:(Powerrchol.Solver.result_meta problem)
          (fun () -> Powerrchol.Solver.run solver problem)
      in
      let named path =
        String.length path > String.length prefix
        && String.sub path 0 (String.length prefix) = prefix
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s records a %s path"
           solver.Powerrchol.Solver.name prefix)
        true
        (List.exists named (span_paths record)
        && List.exists (fun (k, _) -> named k) record.Obs.counters))
    [
      (Powerrchol.Solver.rchol (), "factor/rchol/");
      (Powerrchol.Solver.lt_rchol (), "factor/lt_rchol/");
    ]

let test_profiled_breakdown_matches_result () =
  (* NaN injected into the rhs (Fault): PCG must exit with a typed
     Nonfinite breakdown, and the telemetry must mirror that result
     rather than report a healthy solve. *)
  let clean = grid_problem () in
  let problem =
    Sddm.Problem.of_graph ~name:"obs-nan-rhs" ~graph:clean.Sddm.Problem.graph
      ~d:clean.Sddm.Problem.d
      ~b:(Fault.inject_nan_rhs ~row:7 clean.Sddm.Problem.b)
  in
  let r, record = profiled_run problem in
  (match r.Powerrchol.Solver.status with
   | Krylov.Pcg.Breakdown (Krylov.Pcg.Nonfinite _) -> ()
   | s ->
     Alcotest.failf "expected Nonfinite breakdown, got %s"
       (Krylov.Pcg.status_to_string s));
  Alcotest.(check string) "meta status carries the breakdown"
    (Krylov.Pcg.status_to_string r.Powerrchol.Solver.status)
    (meta_str record "status");
  Alcotest.(check int) "meta iterations = result iterations"
    r.Powerrchol.Solver.iterations (meta_int record "iterations");
  Test_util.check_float "pcg/iterations counter agrees"
    (float_of_int r.Powerrchol.Solver.iterations)
    (counter record "pcg/iterations")

let test_robust_profiled_counts_escalations () =
  (* On a healthy input the profiled robust path must report a solved
     outcome and no fallback-rung escalations. *)
  let problem = grid_problem () in
  let r, record =
    Powerrchol.Solver.with_obs
      ~meta_of:
        (Powerrchol.Solver.robust_meta_of ~case:problem.Sddm.Problem.name
           ~n:(Sddm.Problem.n problem) ~nnz:(Sddm.Problem.nnz problem))
      (fun () -> Powerrchol.Solver.solve_robust problem)
  in
  Alcotest.(check bool) "solved" true (Powerrchol.Solver.robust_ok r);
  Alcotest.(check string) "outcome meta" "solved" (meta_str record "outcome");
  (match List.assoc_opt "robust/escalations" record.Obs.counters with
   | Some v -> Test_util.check_float "no escalations on healthy input" 0.0 v
   | None -> (* counter never touched: equally zero *) ());
  Alcotest.(check int) "meta iterations matches outcome"
    (match r.Powerrchol.Solver.outcome with
     | Powerrchol.Solver.Robust_solved { iterations; _ } -> iterations
     | _ -> -1)
    (meta_int record "iterations")

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and first-entered order" `Quick
            test_span_nesting_and_order;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_still_recorded;
          Alcotest.test_case "disabled layer is transparent" `Quick
            test_disabled_is_transparent;
          Alcotest.test_case "record_span prefixes under the stack" `Quick
            test_record_span_prefixes;
          Alcotest.test_case "a foreign domain records apart" `Quick
            test_foreign_domain_records_apart;
        ] );
      ( "counters",
        [
          Alcotest.test_case "count accumulates monotonically" `Quick
            test_counter_monotonic;
          Alcotest.test_case "degree_sort reports gauges, not sums" `Quick
            test_degree_sort_gauges_not_additive;
        ] );
      ( "json",
        [
          Alcotest.test_case "value round trip + parse errors" `Quick
            test_json_value_round_trip;
          Alcotest.test_case "unicode escapes decode to UTF-8" `Quick
            test_json_unicode_escapes;
          Alcotest.test_case "telemetry record JSON fields" `Quick
            test_record_json_fields;
          Alcotest.test_case "text rendering" `Quick test_record_text_render;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "percentiles within bucket accuracy" `Quick
            test_hist_percentiles;
          Alcotest.test_case "merge is exactly associative" `Quick
            test_hist_merge_associative;
          Alcotest.test_case "observe lands in the capture" `Quick
            test_observe_reaches_capture;
          Alcotest.test_case "single sample, sinks, bucket walk" `Quick
            test_hist_single_sample_and_sinks;
        ]
        @ Test_util.qcheck qcheck_hist_merge_laws );
      ( "windows",
        [
          Alcotest.test_case "sums, rates, rollover" `Quick
            test_window_sums_and_rollover;
          Alcotest.test_case "windowed histogram merge" `Quick
            test_window_hist_merged;
        ] );
      ( "prom",
        [
          Alcotest.test_case "render validates and is cumulative" `Quick
            test_prom_render_and_validate;
          Alcotest.test_case "validator rejects malformed expositions" `Quick
            test_prom_validator_rejects_malformed;
          Alcotest.test_case "NaN counters written as null" `Quick
            test_record_nan_counter_as_null;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "balanced, monotonic, validator agrees" `Quick
            test_trace_well_formed;
          Alcotest.test_case "ring-buffer overflow stays balanced" `Quick
            test_trace_overflow_stays_balanced;
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_path_allocates_nothing;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "profiled solve mirrors the PCG result" `Quick
            test_profiled_solve_matches_result;
          Alcotest.test_case "randomized solvers name their factorization"
            `Quick test_randomized_solvers_name_their_factorization;
          Alcotest.test_case "breakdown path mirrors the PCG result" `Quick
            test_profiled_breakdown_matches_result;
          Alcotest.test_case "robust profiled solve" `Quick
            test_robust_profiled_counts_escalations;
        ] );
    ]
