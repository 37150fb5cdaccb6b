(* Workload [corpus]: every good/bad pair of the spatial-violation corpus
   (Section 5.2), each program compiled from source with the runtime
   prelude and run under HardBound extern-4.  The front end and machine
   creation do the work; the step loop does almost none. *)

module Machine = Hb_cpu.Machine
module Build = Hb_runtime.Build
module Codegen = Hb_minic.Codegen
module Encoding = Hardbound.Encoding
module Gen = Hb_violations.Gen

type program = { id : string; bad : bool; source : string }

let enumerate () =
  List.concat_map
    (fun (c : Gen.case) ->
      [
        { id = c.Gen.id ^ "/good"; bad = false; source = c.Gen.good };
        { id = c.Gen.id ^ "/bad"; bad = true; source = c.Gen.bad };
      ])
    (Gen.all_cases ())

(* the corpus runner's fuel: every case finishes far below it *)
let config = Build.config_for ~scheme:Encoding.Extern4 ~max_instrs:5_000_000 Codegen.Hardbound

type phase = {
  ops : int;
  secs : float list;  (* scaled *)
  words : float;
  failed : int;
}

(* One program: compiled, created and run; whether it was classified
   right, and the minor words it took. *)
let classify i p =
  let w0 = Util.minor_words () in
  Spans.span ~group:i "corpus.program" @@ fun () ->
  match Layers.compile ~mode:Codegen.Hardbound p.source with
  | exception e ->
    Printf.eprintf "[perfbench] %s: %s\n%!" p.id (Printexc.to_string e);
    (false, Util.minor_words () -. w0)
  | image, globals ->
    let _, st, _ = Layers.run ~config ~globals image in
    let words = Util.minor_words () -. w0 in
    (* complete detection and no false positives *)
    match (p.bad, st) with
    | false, Machine.Exited 0 -> (true, words)
    | true, (Machine.Bounds_violation _ | Machine.Non_pointer_violation _) -> (true, words)
    | _ ->
      Printf.eprintf "[perfbench] %s misclassified: %s\n%!" p.id (Machine.status_name st);
      (false, words)

let phase ~seconds ~order =
  let ops = ref 0 and failed = ref 0 in
  let secs = ref [] and words = ref 0. in
  let run_one i p =
    incr ops;
    let (ok, w), dt = Util.timed_scaled (fun () -> classify i p) in
    words := !words +. w;
    if ok then secs := dt :: !secs else incr failed
  in
  ignore
    (Util.rounds ~seconds (fun r ->
         List.iteri (fun i p -> run_one ((r * 10_000) + i) p) order));
  { ops = !ops; secs = !secs; words = !words; failed = !failed }

let e2e p = Util.e2e ~secs:p.secs ~words_per_op:(p.words /. float_of_int p.ops) ()

(* Per-layer figures, after the traced loop, which gave the front end
   and the HardBound cpu tallies: the first 100 good programs again
   under the baseline, a replay of the dereferences of the first good
   programs up to 20,000, snapshots halfway through the first 10 good
   programs, and the campaign layers probed with one power job (corpus
   programs are not named workloads, so the daemon cannot run them). *)
let layers ~seed ~order =
  let good = List.filter (fun p -> not p.bad) order in
  let base = Build.config_for ~max_instrs:5_000_000 Codegen.Nochecks in
  List.iteri
    (fun i p ->
      if i < 100 then begin
        let image, globals = Layers.compile ~mode:Codegen.Nochecks p.source in
        match Layers.run ~config:base ~globals image with
        | _, Machine.Exited 0, _ -> ()
        | _, st, _ ->
          Util.check false "%s under the baseline: %s" p.id (Machine.status_name st)
      end)
    good;
  let cpu = Layers.cpu () in
  let frontend = Layers.frontend () in
  Spans.enabled := false;
  let mk p =
    let image, globals = Layers.compile ~mode:Codegen.Hardbound p.source in
    fun () -> Machine.create ~config ~globals image
  in
  let rec capture n acc = function
    | [] -> acc
    | _ when n >= 20_000 -> acc
    | p :: rest ->
      Hardbound.Checker.reset_tally ();
      let s = Replay.capture ~limit:(20_000 - n) (mk p ()) in
      capture (n + Array.length s.Replay.addr) (s :: acc) rest
  in
  let stream = Replay.concat (List.rev (capture 0 [] good)) in
  let snaps =
    List.filteri (fun i _ -> i < 10) good
    |> List.map (fun p ->
           let mk = mk p in
           let m = mk () in
           ignore (Machine.run m);
           (mk, m.Machine.stats.Hb_cpu.Stats.instructions))
  in
  Spans.enabled := true;
  let step = Layers.step stream in
  let snapshot = Layers.snapshot snaps in
  cpu @ frontend @ step @ snapshot @ Campaign_wl.probe ~seed "power"

(* Set-up: enumerate the corpus, then compile and run its first pair
   once, so that nothing lazy is first paid inside the measured loop. *)
let prepare () =
  let programs = enumerate () in
  List.iteri (fun i p -> if i < 2 then ignore (classify i p)) programs;
  programs

let run ~seed ~seconds ~trace =
  let programs, setup_s = Util.setup ~times:9 prepare in
  let order = Util.shuffle (Hb_fault.Prng.create ~seed) programs in
  let plain = phase ~seconds ~order in
  let rss = Util.peak_rss () in
  if not trace then
    ((Util.m "setup_s" "s" setup_s :: e2e plain) @ [ rss ], plain.ops, plain.failed)
  else begin
    Spans.enabled := true;
    let traced = phase ~seconds ~order in
    let l = layers ~seed ~order in
    Spans.enabled := false;
    ( l @ Util.trace_overhead ~plain:(e2e plain) ~traced:(e2e traced),
      plain.ops + traced.ops,
      plain.failed + traced.failed )
  end
