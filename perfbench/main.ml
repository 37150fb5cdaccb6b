(* Host benchmark of the HardBound simulator.

     dune exec perfbench/main.exe -- --workload olden|corpus|campaign \
       --seed N --seconds S --trace 0|1

   Run from the repository root.  The last line of standard output is
   one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end figures; with
   --trace 1 the run repeats its loop with spans on and prints the
   per-layer figures and the tracing overhead instead, and writes the
   spans to perfbench/_out/.  See perfbench/README.md. *)

module Json = Hb_obs.Json

let workloads =
  [ ("olden", Olden_wl.run); ("corpus", Corpus_wl.run); ("campaign", Campaign_wl.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload olden|corpus|campaign --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME olden | corpus | campaign");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long the measured loop runs");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> Printf.eprintf "unexpected argument %s\n" a; usage ())
    "perfbench";
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  if not (Sys.file_exists (Filename.concat "perfbench" "BENCH_hardbound.json")) then begin
    prerr_endline "run from the repository root (perfbench/ not found)";
    exit 2
  end;
  let metrics, attempted, failed =
    run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  in
  (match !Util.speed with
  | [] -> ()
  | l ->
    Printf.eprintf "[perfbench] host speed: calibration loop %.4f s (median of %d)\n%!"
      (Util.median (List.map snd l)) (List.length l));
  if !trace = 1 then
    Spans.write
      (Filename.concat Util.out_dir
         (Printf.sprintf "spans-%s-%d.json" !workload !seed));
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (!Util.incorrect = []));
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (m : Util.metric) ->
                 ( m.Util.name,
                   Json.Obj
                     [ ("value", Json.Float m.Util.value); ("unit", Json.String m.Util.unit_) ] ))
               metrics) );
      ]
  in
  print_endline (Json.to_string result)
