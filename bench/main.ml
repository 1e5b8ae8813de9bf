(* Benchmark driver regenerating every table and figure of the paper.

   Usage:
     dune exec bench/main.exe              # everything (tables, figures, ablations)
     dune exec bench/main.exe table1       # one experiment
     dune exec bench/main.exe micro        # bechamel kernel micro-benchmarks
   Environment:
     BENCH_SCALE   multiply case sizes (default 1.0)
     BENCH_RTOL    PCG relative tolerance (default 1e-6) *)

let experiments =
  [
    ("table1", Experiments.table1);
    ("table2", Experiments.table2);
    ("table3", Experiments.table3);
    ("table4", Experiments.table4);
    ("fig1", Experiments.fig1);
    ("fig2", Experiments.fig2);
    ("fig3", Experiments.fig3);
    ("ablation", Experiments.ablation);
    ("batched", Experiments.batched);
    ("scale", Experiments.scale);
    ("micro", Micro.run);
    ("kernels", Kernels.run);
    ("serve", Serve_bench.run);
    ("edits", Eco_bench.run);
  ]

let run_all () =
  Printf.printf
    "PowerRChol benchmark harness (scale %.2f, rtol %.0e)\n"
    Runner.scale Runner.rtol;
  Printf.printf
    "Reproduces DAC'24 Tables 1-4 and Figures 1-3 on synthetic analogs; \
     see DESIGN.md and EXPERIMENTS.md.\n";
  List.iter
    (fun (name, f) ->
      (* micro is opt-in (slow bechamel sampling); scale is opt-in (builds
         a 1e6-node grid — the scheduled scale-smoke CI job runs it) *)
      if name <> "micro" && name <> "scale" then begin
        let t0 = Unix.gettimeofday () in
        f ();
        Printf.printf "[%s completed in %.1f s]\n%!" name
          (Unix.gettimeofday () -. t0)
      end)
    experiments

let () =
  (match Array.to_list Sys.argv with
   | [ _ ] | [ _; "all" ] -> run_all ()
   | _ :: names ->
     (* several experiment names run in sequence and share one bench.json
        (e.g. "table1 batched" in the CI smoke job) *)
     List.iter
       (fun name ->
         match List.assoc_opt name experiments with
         | Some f ->
           f ();
           flush stdout
         | None ->
           Printf.eprintf "unknown experiment %S; available: %s all\n" name
             (String.concat " " (List.map fst experiments));
           exit 1)
       names
   | [] ->
     Printf.eprintf "usage: main.exe [table1|...|ablation|batched|micro|all]\n";
     exit 1);
  (* machine-readable summary of every (case, solver) measurement this
     run, diffed across commits by bench/compare.exe *)
  Runner.write_bench_json ()
