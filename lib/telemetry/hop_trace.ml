(* Fixed-capacity ring of per-packet hop events keyed on the packet uid.
   Recording overwrites the oldest entry; reading scans the ring (it is
   a debugging/forensics surface, not a hot path).

   Storage is four parallel arrays rather than an array of event
   records: recording happens for every instrumented hop of every
   packet, and the unboxed layout makes it four stores with no
   allocation (the float array is flat), where a record ring would
   allocate and initialize a box per hop. Labels are stored as interned
   int codes, so no slot store goes through the write barrier. The
   public [event] record is reconstructed only on the cold read paths. *)

type event = { uid : int; time : float; node : int; label : string }

(* The label intern table is process-wide: shards on other domains
   record [drop:<reason>] labels into their own rings, and a code must
   mean the same string everywhere. Interning takes a mutex; decoding
   reads an immutable array published through an atomic, replaced
   wholesale (copy-on-write) when a label is added. Labels form a small
   closed set, so the copies are few. *)
let intern_lock = Mutex.create ()
let codes : (string, int) Hashtbl.t = Hashtbl.create 32
let names : string array Atomic.t = Atomic.make [||]

let intern label =
  Mutex.protect intern_lock (fun () ->
      match Hashtbl.find_opt codes label with
      | Some code -> code
      | None ->
        let known = Atomic.get names in
        let code = Array.length known in
        Atomic.set names (Array.append known [| label |]);
        Hashtbl.add codes label code;
        code)

type t = {
  uids : int array;
  times : float array;
  nodes : int array;
  labels : int array;  (* interned label codes *)
  mutable pos : int;  (* next slot to overwrite *)
  mutable recorded : int;  (* total ever recorded *)
}

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Hop_trace.create: capacity must be positive";
  { uids = Array.make capacity (-1);
    times = Array.make capacity 0.0;
    nodes = Array.make capacity (-1);
    labels = Array.make capacity (-1);
    pos = 0;
    recorded = 0 }

let capacity t = Array.length t.uids

let recorded t = t.recorded

(* The one store path. Inlined into both entry points, so the time
   reaches the [times] slot unboxed. *)
let[@inline] store t ~uid ~time ~node code =
  let p = t.pos in
  t.uids.(p) <- uid;
  t.times.(p) <- time;
  t.nodes.(p) <- node;
  t.labels.(p) <- code;
  let p = p + 1 in
  t.pos <- (if p = Array.length t.uids then 0 else p);
  t.recorded <- t.recorded + 1

let record_code t ~uid ~clock ~node code =
  if !Control.enabled then
    store t ~uid ~time:(Float.Array.get clock 0) ~node code

let record t ~uid ~time ~node label =
  if !Control.enabled then store t ~uid ~time ~node (intern label)

let iter_codes f t =
  let cap = Array.length t.uids in
  let live = min t.recorded cap in
  let j = ref ((t.pos - live + cap) mod cap) in
  for _ = 1 to live do
    f t.uids.(!j) t.labels.(!j);
    incr j;
    if !j = cap then j := 0
  done

(* The newest [n] live entries, oldest first: every one when [all],
   else only [uid]'s. The walk runs newest first and tests each slot
   before building anything, and takes no closure, so a read allocates
   for what it returns and nothing else: [Span.offer] traces every
   sampled fate, and every registry export reads the tail. *)
let collect t n ~all ~uid =
  let cap = Array.length t.uids in
  let names = Atomic.get names in
  let acc = ref [] in
  let j = ref t.pos in
  for _ = 1 to min n (min t.recorded cap) do
    j := (if !j = 0 then cap - 1 else !j - 1);
    let j = !j in
    if all || t.uids.(j) = uid then
      acc :=
        { uid = t.uids.(j); time = t.times.(j); node = t.nodes.(j);
          label = names.(t.labels.(j)) }
        :: !acc
  done;
  !acc

let trace t ~uid = collect t max_int ~all:false ~uid

let recent t n = collect t n ~all:true ~uid:0

let clear t =
  Array.fill t.uids 0 (Array.length t.uids) (-1);
  Array.fill t.times 0 (Array.length t.times) 0.0;
  Array.fill t.nodes 0 (Array.length t.nodes) (-1);
  Array.fill t.labels 0 (Array.length t.labels) (-1);
  t.pos <- 0;
  t.recorded <- 0

let pp_event ppf e =
  Format.fprintf ppf "%.6f uid=%d node=%d %s" e.time e.uid e.node e.label
