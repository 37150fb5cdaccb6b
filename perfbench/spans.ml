(* The traced run's span recorder.

   A span is a named interval around one call into a layer's public
   functions, made by the benchmark's own code: name, start, end and the
   span that was open around it on the same thread.  Spans of one
   program or one job share a group id.  They stay in memory and are
   written out once, when the run ends.  With recording off, [span] is a
   plain call. *)

module Json = Hb_obs.Json

type t = {
  sid : int;
  name : string;
  group : int;
  parent : int;  (* sid of the enclosing span, -1 at the top *)
  t0 : int64;
  mutable t1 : int64;
}

let enabled = ref false
let mu = Mutex.create ()
let recorded : t list ref = ref []
let next = ref 0

(* open spans per thread, innermost first *)
let stacks : (int, t list) Hashtbl.t = Hashtbl.create 4

let span ?group name f =
  if not !enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    Mutex.lock mu;
    let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
    let parent, inherited =
      match stack with p :: _ -> (p.sid, p.group) | [] -> (-1, -1)
    in
    let s =
      {
        sid = !next;
        name;
        group = Option.value group ~default:inherited;
        parent;
        t0 = Util.now_ns ();
        t1 = 0L;
      }
    in
    incr next;
    recorded := s :: !recorded;
    Hashtbl.replace stacks tid (s :: stack);
    Mutex.unlock mu;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock mu;
        s.t1 <- Util.now_ns ();
        Hashtbl.replace stacks tid stack;
        Mutex.unlock mu)
      f
  end

let dur_ns s = Int64.to_float (Int64.sub s.t1 s.t0)

(* Self time: a span's duration minus what its child spans cover.
   Children run on their parent's thread, one after another, so they
   never overlap and their durations add up. *)
let self_ns () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur_ns s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    !recorded;
  fun s ->
    Float.max 0.
      (dur_ns s -. Option.value (Hashtbl.find_opt child s.sid) ~default:0.)

(* Summed self seconds of every span called [name]. *)
let self_s name =
  let self = self_ns () in
  List.fold_left
    (fun t s -> if s.name = name then t +. (self s /. 1e9) else t)
    0. !recorded

let write path =
  let self = self_ns () in
  let rows =
    List.rev_map
      (fun s ->
        Json.Obj
          [
            ("id", Json.Int s.sid);
            ("name", Json.String s.name);
            ("group", Json.Int s.group);
            ("parent", Json.Int s.parent);
            ("start_ns", Json.String (Int64.to_string s.t0));
            ("end_ns", Json.String (Int64.to_string s.t1));
            ("self_ns", Json.Float (self s));
          ])
      !recorded
  in
  Util.mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string (Json.List rows));
      output_char oc '\n')

(* How many spans are called [name]. *)
let count name =
  List.fold_left (fun n s -> if s.name = name then n + 1 else n) 0 !recorded
