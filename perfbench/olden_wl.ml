(* Workload [olden]: Olden programs under the baseline and the three
   HardBound encodings, compiled during set-up.  Almost all the host
   time is the [Machine.step] loop (cpu, core, mem, cache); the front end
   and snapshots do none of the work. *)

module Machine = Hb_cpu.Machine
module Stats = Hb_cpu.Stats
module Build = Hb_runtime.Build
module Codegen = Hb_minic.Codegen
module Encoding = Hardbound.Encoding
module Workloads = Hb_workloads.Workloads

(* The timed loop runs power, the shortest Olden program: a round of its
   four configurations takes 2.4-5 s, so each of its runs is short next
   to the host's changes of speed, which [Util.timed_scaled] follows.
   treeadd and bisort check their own results.  They run once a run,
   after the loop and untimed, under the baseline and one HardBound
   encoding that the seed picks: 5-12 s of runs, each long enough for
   the host to change speed in its middle. *)
let timed = "power"
let checked = [ "treeadd"; "bisort" ]
let programs = timed :: checked

type config = { cname : string; mode : Codegen.mode; scheme : Encoding.scheme }

let configs =
  [
    { cname = "baseline"; mode = Codegen.Nochecks; scheme = Encoding.Extern4 };
    { cname = "hb-extern-4"; mode = Codegen.Hardbound; scheme = Encoding.Extern4 };
    { cname = "hb-intern-4"; mode = Codegen.Hardbound; scheme = Encoding.Intern4 };
    { cname = "hb-intern-11"; mode = Codegen.Hardbound; scheme = Encoding.Intern11 };
  ]

let treeadd_expect = 4 * ((1 lsl 15) - 1)

let contains ~sub s =
  let n = String.length sub and h = String.length s in
  let rec at i = i + n <= h && (String.sub s i n = sub || at (i + 1)) in
  at 0

type phase = {
  ops : int;
  secs : float list;  (* timed runs, scaled *)
  words : float;  (* timed runs *)
  failed : int;
}

let phase ~seconds ~order ~corder ~checks ~images ~refs =
  let ops = ref 0 and failed = ref 0 and group = ref 0 in
  let secs = ref [] and words = ref 0. in
  (* Checks of one run that exited 0. *)
  let check name c (m : Machine.t) =
    let s = m.Machine.stats in
    (match Stats.check_invariants s with
    | Ok () -> ()
    | Error e -> Util.check false "%s/%s: Stats invariant: %s" name c.cname e);
    match Hashtbl.find_opt refs (name, c.cname) with
    | Some (ri, rc) ->
      Util.check
        (ri = s.Stats.instructions && rc = Stats.cycles s)
        "%s/%s: %d instrs %d cycles, reference %d/%d" name c.cname
        s.Stats.instructions (Stats.cycles s) ri rc
    | None -> Util.check false "%s/%s: not in the reference" name c.cname
  in
  (* One program run: its output when it exits 0. *)
  let run_one name c =
    incr ops;
    incr group;
    let image, globals = Hashtbl.find images (name, c.mode) in
    let config = Build.config_for ~scheme:c.scheme c.mode in
    (* start from a collected heap: one program's garbage is not
       collected on the next one's clock, and the peak RSS does not
       depend on the order the seed picked *)
    Gc.full_major ();
    let (m, st, w), dt =
      Util.timed_scaled (fun () ->
          Spans.span ~group:!group ("olden." ^ c.cname) (fun () ->
              Layers.run ~config ~globals image))
    in
    match st with
    | Machine.Exited 0 ->
      if name = timed then begin
        secs := dt :: !secs;
        words := !words +. w
      end;
      check name c m;
      Some (Machine.output m)
    | st ->
      incr failed;
      Printf.eprintf "[perfbench] %s/%s: %s\n%!" name c.cname (Machine.status_name st);
      None
  in
  (* One program under [cs], and its output checks. *)
  let program cs name =
    let outs = List.map (fun c -> (c, run_one name c)) cs in
    let base = List.find_map (fun (c, o) -> if c.cname = "baseline" then o else None) outs in
    (* the paper's transparency property: protection changes no
       program-visible behaviour *)
    List.iter
      (fun (c, o) ->
        match (o, base) with
        | Some o, Some b ->
          Util.check (o = b) "%s/%s: output differs from the baseline's" name c.cname
        | _ -> ())
      outs;
    match base with
    | None -> ()
    | Some b ->
      if name = "treeadd" then
        Util.check
          (contains ~sub:(Printf.sprintf "treeadd: %d\n" treeadd_expect) b)
          "treeadd printed %S" b;
      if name = "bisort" then
        Util.check (contains ~sub:"forward 1 backward 1" b) "bisort printed %S" b
  in
  ignore (Util.rounds ~seconds (fun _ -> program corder timed));
  List.iter (program checks) order;
  { ops = !ops; secs = !secs; words = !words; failed = !failed }

let e2e p =
  Util.e2e ~secs:p.secs ~words_per_op:(p.words /. float_of_int (List.length p.secs)) ()

let compile_all () =
  let images = Hashtbl.create 16 in
  List.iter
    (fun name ->
      let src = (Workloads.find name).Workloads.source in
      List.iter
        (fun mode -> Hashtbl.replace images (name, mode) (Layers.compile ~mode src))
        [ Codegen.Nochecks; Codegen.Hardbound ])
    programs;
  (images, Util.reference ())

(* Per-layer figures, after the traced loop: the front end on the
   workload's six images, the cpu tallies of the loop, a replay of the
   first 50,000 checked dereferences of each program under extern-4, a
   snapshot halfway through power, and the campaign layers probed with
   one power job. *)
let layers ~seed ~images ~refs =
  ignore (compile_all ());
  let config = Build.config_for ~scheme:Encoding.Extern4 Codegen.Hardbound in
  let mk name () =
    let image, globals = Hashtbl.find images (name, Codegen.Hardbound) in
    Machine.create ~config ~globals image
  in
  let stream =
    Replay.concat
      (List.map
         (fun name ->
           Hardbound.Checker.reset_tally ();
           Replay.capture ~limit:50_000 (mk name ()))
         programs)
  in
  let power_instrs = fst (Hashtbl.find refs ("power", "hb-extern-4")) in
  let cpu = Layers.cpu () in
  let step = Layers.step stream in
  let snapshot = Layers.snapshot [ (mk "power", power_instrs) ] in
  let frontend = Layers.frontend () in
  cpu @ step @ snapshot @ frontend @ Campaign_wl.probe ~seed "power"

let run ~seed ~seconds ~trace =
  let (images, refs), setup_s = Util.setup ~times:9 compile_all in
  let rng = Hb_fault.Prng.create ~seed in
  let order = Util.shuffle rng checked in
  let corder = Util.shuffle rng configs in
  let checks =
    List.hd configs :: [ List.nth (List.tl configs) (Hb_fault.Prng.below rng 3) ]
  in
  let go () = phase ~seconds ~order ~corder ~checks ~images ~refs in
  let plain = go () in
  let rss = Util.peak_rss () in
  if not trace then
    ((Util.m "setup_s" "s" setup_s :: e2e plain) @ [ rss ], plain.ops, plain.failed)
  else begin
    Spans.enabled := true;
    let traced = go () in
    let l = layers ~seed ~images ~refs in
    Spans.enabled := false;
    ( l @ Util.trace_overhead ~plain:(e2e plain) ~traced:(e2e traced),
      plain.ops + traced.ops,
      plain.failed + traced.failed )
  end
