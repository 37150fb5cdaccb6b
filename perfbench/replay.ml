(* In-step replay for the layers that run inside [Machine.step]: mem
   (Physmem), core (Encoding, Checker, Propagate) and cache (Hierarchy).

   A span around each of their calls would cost more than the call, so
   they are timed from outside.  An access stream is captured from real
   Olden runs through the machine's own tracer sink ([Checked_deref] and
   [Metadata_uop] events), then replayed through each layer's public
   functions in tight loops: wall ns and minor words per call. *)

module Machine = Hb_cpu.Machine
module Trace = Hb_obs.Trace
module Physmem = Hb_mem.Physmem
module Layout = Hb_mem.Layout
module Hierarchy = Hb_cache.Hierarchy
module Encoding = Hardbound.Encoding
module Checker = Hardbound.Checker
module Propagate = Hardbound.Propagate
module Meta = Hardbound.Meta

type stream = {
  addr : int array;  (* checked dereferences *)
  width : int array;
  is_store : bool array;
  meta : Meta.t array;
  uop_addr : int array;  (* base/bound shadow accesses *)
}

(* The first [limit] checked dereferences of a run, and the metadata
   micro-ops issued meanwhile.  The machine is stepped by hand and left
   unfinished: a prefix is all the replay needs. *)
let capture ~limit (m : Machine.t) =
  let derefs = ref [] and n = ref 0 and uops = ref [] in
  let sink (e : Trace.event) =
    match e.Trace.kind with
    | Trace.Checked_deref { addr; width; is_store; base; bound } ->
      incr n;
      derefs := (addr, width, is_store, { Meta.base; bound }) :: !derefs
    | Trace.Metadata_uop { addr; _ } -> uops := addr :: !uops
    | _ -> ()
  in
  Machine.attach_tracer m (Trace.create ~sink ~capacity:1 ());
  while !n < limit && m.Machine.halted = None do
    Machine.step m
  done;
  let d = Array.of_list (List.rev !derefs) in
  {
    addr = Array.map (fun (a, _, _, _) -> a) d;
    width = Array.map (fun (_, w, _, _) -> w) d;
    is_store = Array.map (fun (_, _, s, _) -> s) d;
    meta = Array.map (fun (_, _, _, md) -> md) d;
    uop_addr = Array.of_list (List.rev !uops);
  }

let concat l =
  {
    addr = Array.concat (List.map (fun s -> s.addr) l);
    width = Array.concat (List.map (fun s -> s.width) l);
    is_store = Array.concat (List.map (fun s -> s.is_store) l);
    meta = Array.concat (List.map (fun s -> s.meta) l);
    uop_addr = Array.concat (List.map (fun s -> s.uop_addr) l);
  }

let reps = 5

(* Median over [reps] passes of (ns per call, minor words per call).
   [pass] makes one pass and returns its call count; one untimed pass
   first fills caches and materializes pages. *)
let per_call pass =
  ignore (pass ());
  let samples =
    List.init reps (fun _ ->
        let w0 = Util.minor_words () in
        let calls, s = Util.timed pass in
        let c = float_of_int (max 1 calls) in
        (s *. 1e9 /. c, (Util.minor_words () -. w0) /. c))
  in
  (Util.median (List.map fst samples), Util.median (List.map snd samples))

let word a = a land lnot 3

let mem s =
  let pm = Physmem.create () in
  let n = Array.length s.addr in
  let sink = ref 0 in
  let reads () =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if not s.is_store.(i) then begin
        sink := !sink lxor Physmem.read_u32 pm (word s.addr.(i));
        incr c
      end
    done;
    !c
  in
  let writes () =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if s.is_store.(i) then begin
        Physmem.write_u32 pm (word s.addr.(i)) i;
        incr c
      end
    done;
    !c
  in
  let read_ns, read_w = per_call reads in
  let write_ns, write_w = per_call writes in
  ignore (Sys.opaque_identity !sink);
  (read_ns, write_ns, (read_w +. write_w) /. 2.)

let schemes = Encoding.[ Extern4; Intern4; Intern11 ]

(* (scheme, encode ns, decode ns, encode words) *)
let encoding s =
  let n = Array.length s.addr in
  List.map
    (fun scheme ->
      let encode () =
        for i = 0 to n - 1 do
          ignore
            (Sys.opaque_identity
               (Encoding.encode scheme ~value:s.addr.(i) s.meta.(i)))
        done;
        n
      in
      let enc = Array.init n (fun i -> Encoding.encode scheme ~value:s.addr.(i) s.meta.(i)) in
      let wd = Array.make n 0 and tg = Array.make n 0 and ax = Array.make n 0 in
      Array.iteri
        (fun i e ->
          match e with
          | Encoding.Enc_non_pointer v -> wd.(i) <- v
          | Encoding.Enc_inline { word; tag; aux } ->
            wd.(i) <- word;
            tg.(i) <- tag;
            ax.(i) <- aux
          | Encoding.Enc_shadow { word; tag } ->
            wd.(i) <- word;
            tg.(i) <- tag)
        enc;
      let decode () =
        for i = 0 to n - 1 do
          ignore
            (Sys.opaque_identity
               (Encoding.decode scheme ~word:wd.(i) ~tag:tg.(i) ~aux:ax.(i)))
        done;
        n
      in
      let enc_ns, enc_w = per_call encode in
      let dec_ns, _ = per_call decode in
      (scheme, enc_ns, dec_ns, enc_w))
    schemes

let check s =
  let n = Array.length s.addr in
  Checker.reset_tally ();
  let pass () =
    for i = 0 to n - 1 do
      ignore
        (Sys.opaque_identity
           (Checker.check Checker.Full s.meta.(i) ~pc:0 ~addr:s.addr.(i)
              ~value:s.addr.(i) ~width:s.width.(i) ~is_store:s.is_store.(i)))
    done;
    n
  in
  fst (per_call pass)

let propagate s =
  let n = Array.length s.meta in
  let pass () =
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (Propagate.binop_imm Hb_isa.Types.Add s.meta.(i)));
      ignore
        (Sys.opaque_identity
           (Propagate.binop Hb_isa.Types.Add Meta.non_pointer s.meta.(i)))
    done;
    2 * n
  in
  fst (per_call pass)

(* (class name, ns per access): data and tag accesses follow the
   dereferences, base/bound accesses the metadata micro-ops. *)
let cache s =
  let tag_bits = Encoding.tag_bits Encoding.Extern4 in
  let h = Hierarchy.create (Hierarchy.default_params ~tag_bits) in
  let tags =
    Array.map
      (fun a ->
        let t, _, _ = Layout.tag_location ~bits:tag_bits (word a) in
        t)
      s.addr
  in
  let stall = ref 0 in
  let over cls addrs () =
    Array.iter (fun a -> stall := !stall + Hierarchy.access h cls a) addrs;
    Array.length addrs
  in
  let r =
    [
      ("data", fst (per_call (over Hierarchy.Data s.addr)));
      ("tag", fst (per_call (over Hierarchy.Tag_meta tags)));
      ("bb", fst (per_call (over Hierarchy.Base_bound s.uop_addr)));
    ]
  in
  ignore (Sys.opaque_identity !stall);
  r
