(* Per-layer figures of the traced run, shared by the three workloads.

   Every workload prints every per-layer metric, each measured on that
   workload's own programs: the machines its traced loop runs, an access
   stream captured from them and replayed through the layers inside
   [Machine.step], and a snapshot taken halfway through one of them.
   The campaign layers (fault, recover, serve) live in [Campaign_wl]. *)

module Machine = Hb_cpu.Machine
module Stats = Hb_cpu.Stats
module Snapshot = Hb_cpu.Snapshot
module Hierarchy = Hb_cache.Hierarchy
module Physmem = Hb_mem.Physmem
module Runtime_src = Hb_runtime.Runtime_src
module Codegen = Hb_minic.Codegen
module Parser = Hb_minic.Parser
module Typecheck = Hb_minic.Typecheck
module Program = Hb_isa.Program
module Encoding = Hardbound.Encoding

(* ---- front end ----------------------------------------------------------- *)

type frontend = {
  mutable programs : int;
  mutable fe_words : float;
  mutable unit_bytes : int;
}

let fe = { programs = 0; fe_words = 0.; unit_bytes = 0 }

(* [Build.compile], one phase at a time so each gets its own span.  With
   spans on, the front end's minor words and source bytes are tallied. *)
let compile ~mode source =
  let w0 = Util.minor_words () in
  let unit_ = Runtime_src.source ^ "\n" ^ source in
  let ast = Spans.span "minic.parse" (fun () -> Parser.parse_tunit unit_) in
  let typed = Spans.span "minic.typecheck" (fun () -> Typecheck.check_tunit ast) in
  let compiled = Spans.span "minic.codegen" (fun () -> Codegen.compile ~mode typed) in
  let image =
    Spans.span "isa.link" (fun () ->
        match Program.validate compiled.Codegen.program with
        | Ok () -> Program.link compiled.Codegen.program
        | Error e -> failwith ("invalid generated code: " ^ e))
  in
  if !Spans.enabled then begin
    fe.programs <- fe.programs + 1;
    fe.fe_words <- fe.fe_words +. (Util.minor_words () -. w0);
    fe.unit_bytes <- fe.unit_bytes + String.length unit_
  end;
  (image, compiled.Codegen.globals_image)

let frontend () =
  let n = float_of_int fe.programs in
  let ms out name = Util.m out "ms" (Spans.self_s name *. 1000. /. n) in
  [
    ms "minic.parse_ms" "minic.parse";
    ms "minic.typecheck_ms" "minic.typecheck";
    ms "minic.codegen_ms" "minic.codegen";
    ms "isa.link_ms" "isa.link";
    Util.m "minic.alloc_kwords" "kwords/program" (fe.fe_words /. n /. 1000.);
    Util.m "runtime.prelude_share" "ratio"
      (float_of_int (String.length Runtime_src.source) *. n /. float_of_int fe.unit_bytes);
  ]

(* ---- machines -------------------------------------------------------------- *)

(* Totals over the machines run with spans on, one for the baseline
   (Nochecks) and one pooled over the HardBound encodings. *)
type tally = {
  mutable machines : int;
  mutable instrs : int;
  mutable run_s : float;
  mutable words : float;
  mutable loads : int;
  mutable stores : int;
  mutable derefs : int;
  mutable ptr_loads : int;
  mutable ptr_stores : int;
  mutable setbounds : int;
  mutable data_acc : int;
  mutable tag_acc : int;
  mutable bb_acc : int;
  mutable pages : int;
}

let tally () =
  {
    machines = 0; instrs = 0; run_s = 0.; words = 0.; loads = 0; stores = 0;
    derefs = 0; ptr_loads = 0; ptr_stores = 0; setbounds = 0; data_acc = 0;
    tag_acc = 0; bb_acc = 0; pages = 0;
  }

let baseline = tally ()
let hardbound = tally ()

let add t (m : Machine.t) ~secs ~words =
  let s = m.Machine.stats in
  let acc cls = (Hierarchy.stats_of m.Machine.hier cls).Hierarchy.accesses in
  t.machines <- t.machines + 1;
  t.instrs <- t.instrs + s.Stats.instructions;
  t.run_s <- t.run_s +. secs;
  t.words <- t.words +. words;
  t.loads <- t.loads + s.Stats.loads;
  t.stores <- t.stores + s.Stats.stores;
  t.derefs <- t.derefs + s.Stats.checked_derefs;
  t.ptr_loads <- t.ptr_loads + s.Stats.ptr_loads;
  t.ptr_stores <- t.ptr_stores + s.Stats.ptr_stores;
  t.setbounds <- t.setbounds + s.Stats.setbound_instrs;
  t.data_acc <- t.data_acc + acc Hierarchy.Data;
  t.tag_acc <- t.tag_acc + acc Hierarchy.Tag_meta;
  t.bb_acc <- t.bb_acc + acc Hierarchy.Base_bound;
  t.pages <- t.pages + Physmem.pages_touched m.Machine.mem

(* Create and run one machine: the machine, its status and the minor
   words both took.  With spans on it is tallied under its mode.
   [Checker.reset_tally] first, since the tally is process-wide. *)
let run ~config ~globals image =
  Hardbound.Checker.reset_tally ();
  let w0 = Util.minor_words () in
  let m = Spans.span "cpu.create" (fun () -> Machine.create ~config ~globals image) in
  let w1 = Util.minor_words () in
  let st, secs = Util.timed (fun () -> Spans.span "cpu.run" (fun () -> Machine.run m)) in
  let w2 = Util.minor_words () in
  if !Spans.enabled then
    add
      (if config.Machine.mode = Hardbound.Checker.Off then baseline else hardbound)
      m ~secs ~words:(w2 -. w1);
  (m, st, w2 -. w0)

let per t x = float_of_int x /. float_of_int t.instrs
let ns_per_instr t = t.run_s *. 1e9 /. float_of_int t.instrs

let cpu () =
  let per_machine out name =
    Util.m out "ms" (Spans.self_s name *. 1000. /. float_of_int (Spans.count name))
  in
  let h = hardbound in
  [
    per_machine "cpu.create_ms" "cpu.create";
    per_machine "cpu.run_ms" "cpu.run";
  ]
  @ List.concat_map
      (fun (n, t) ->
        Util.
          [
            m ("cpu.ns_per_instr." ^ n) "ns" (ns_per_instr t);
            m ("cpu.alloc_words_per_instr." ^ n) "words/instr"
              (t.words /. float_of_int t.instrs);
          ])
      [ ("baseline", baseline); ("hardbound", hardbound) ]
  @ Util.
      [
        m "cpu.loads_per_instr" "1/instr" (per h h.loads);
        m "cpu.stores_per_instr" "1/instr" (per h h.stores);
        m "cpu.checked_derefs_per_instr" "1/instr" (per h h.derefs);
        m "cpu.ptr_loads_per_instr" "1/instr" (per h h.ptr_loads);
        m "cpu.ptr_stores_per_instr" "1/instr" (per h h.ptr_stores);
        m "cpu.setbounds_per_instr" "1/instr" (per h h.setbounds);
      ]

(* ---- mem, core and cache, by replay -------------------------------------- *)

(* [stream] was captured from the workload's own HardBound machines; the
   cost per call is joined with the calls per instruction of the tallied
   HardBound machines, as a share of their host time per instruction. *)
let step stream =
  Printf.eprintf "[perfbench] replaying %d dereferences, %d metadata uops\n%!"
    (Array.length stream.Replay.addr) (Array.length stream.Replay.uop_addr);
  let h = hardbound in
  let read_ns, write_ns, words = Replay.mem stream in
  let enc = Replay.encoding stream in
  let check_ns = Replay.check stream in
  let prop_ns = Replay.propagate stream in
  let cache = Replay.cache stream in
  let cls_acc = [ ("data", h.data_acc); ("tag", h.tag_acc); ("bb", h.bb_acc) ] in
  let mean f l = Util.sum (List.map f l) /. float_of_int (List.length l) in
  let enc_ns = mean (fun (_, e, _, _) -> e) enc
  and dec_ns = mean (fun (_, _, d, _) -> d) enc in
  let mem_est = (read_ns *. per h h.loads) +. (write_ns *. per h h.stores) in
  let core_est =
    (check_ns *. per h h.derefs) +. (dec_ns *. per h h.loads) +. (enc_ns *. per h h.stores)
  in
  let cache_est =
    Util.sum (List.map (fun (cls, ns) -> ns *. per h (List.assoc cls cls_acc)) cache)
  in
  let share est = est /. ns_per_instr h in
  Util.
    [
      m "mem.read_ns" "ns" read_ns;
      m "mem.write_ns" "ns" write_ns;
      m "mem.words_per_access" "words" words;
      m "mem.pages_touched" "pages"
        (float_of_int (baseline.pages + h.pages)
        /. float_of_int (baseline.machines + h.machines));
      m "mem.step_share" "ratio" (share mem_est);
    ]
  @ List.concat_map
      (fun (s, e, d, w) ->
        let n = Encoding.scheme_name s in
        Util.
          [
            m ("core.encode_ns." ^ n) "ns" e;
            m ("core.decode_ns." ^ n) "ns" d;
            m ("core.encode_words." ^ n) "words" w;
          ])
      enc
  @ Util.
      [
        m "core.check_ns" "ns" check_ns;
        m "core.propagate_ns" "ns" prop_ns;
        m "core.step_share" "ratio" (share core_est);
      ]
  @ List.concat_map
      (fun (cls, ns) ->
        Util.
          [
            m ("cache.access_ns." ^ cls) "ns" ns;
            m ("cache.accesses_per_instr." ^ cls) "1/instr" (per h (List.assoc cls cls_acc));
          ])
      cache
  @ [ Util.m "cache.step_share" "ratio" (share cache_est) ]

(* ---- snapshots ------------------------------------------------------------- *)

(* Capture, digest and restore on machines halfway through their
   programs ([instrs] is a whole run's count): ms per call, each the
   median of 5, averaged over the machines; and the pages a capture
   holds. *)
let snapshot (machines : ((unit -> Machine.t) * int) list) =
  let one (mk, instrs) =
    let m = mk () in
    while m.Machine.stats.Stats.instructions < instrs / 2 do
      Machine.step m
    done;
    let time name f =
      Util.median (List.init 5 (fun _ -> snd (Util.timed (fun () -> Spans.span name f))))
    in
    let snap = Snapshot.capture m in
    let capture = time "snapshot.capture" (fun () -> ignore (Snapshot.capture m)) in
    let digest = time "snapshot.digest" (fun () -> ignore (Snapshot.digest m)) in
    let restore = time "snapshot.restore" (fun () -> Snapshot.restore m snap) in
    (capture, digest, restore, float_of_int (Snapshot.touched_pages snap))
  in
  let l = List.map one machines in
  let mean f = Util.sum (List.map f l) /. float_of_int (List.length l) in
  Util.
    [
      m "snapshot.capture_ms" "ms" (mean (fun (c, _, _, _) -> c) *. 1000.);
      m "snapshot.restore_ms" "ms" (mean (fun (_, _, r, _) -> r) *. 1000.);
      m "snapshot.digest_ms" "ms" (mean (fun (_, d, _, _) -> d) *. 1000.);
      m "snapshot.pages" "pages" (mean (fun (_, _, _, p) -> p));
    ]
