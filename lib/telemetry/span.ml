(* End-to-end span reconstruction over the {!Hop_trace} ring.

   The ring records flat per-packet hop events ("rx", "tx", "txstart",
   "deliver", "drop:<reason>"); a span folds one packet's chronological
   events into contiguous segments, each attributing its dwell time to
   a stage of the forwarding path:

     rx -> tx            processing (decision path at the node)
     tx -> txstart       queueing   (waiting in the egress qdisc)
     txstart -> rx       transmission (serialization + propagation)
     rx -> deliver       delivery   (hand-off to the local sink)

   Because segments pair consecutive events, their dwells sum exactly
   to last-event time minus first-event time — the packet's end-to-end
   delay when the first event is its ingress "rx". *)

type kind = Processing | Queueing | Transmission | Delivery | Other

type segment = {
  node : int;  (* where the segment starts *)
  next_node : int;  (* where it ends (same as [node] unless on the wire) *)
  kind : kind;
  start_time : float;
  dwell : float;
  from_label : string;
  to_label : string;
}

type outcome = Delivered | Dropped of string | In_flight

type t = {
  uid : int;
  vpn : int;
  band : int;
  start_time : float;
  end_time : float;
  outcome : outcome;
  segments : segment list;
}

let kind_name = function
  | Processing -> "processing"
  | Queueing -> "queueing"
  | Transmission -> "transmission"
  | Delivery -> "delivery"
  | Other -> "other"

let is_drop label =
  String.length label >= 5 && String.sub label 0 5 = "drop:"

let kind_of_pair ~from_label ~to_label =
  match (from_label, to_label) with
  | "rx", "tx" -> Processing
  | "tx", "txstart" -> Queueing
  | "txstart", "rx" -> Transmission
  | "rx", "deliver" -> Delivery
  | from_label, _ ->
    (* Terminal drops and unexpected sequences classify by where the
       packet last was: after "rx" it was being processed, after "tx"
       it sat in a queue, after "txstart" it was on the wire. *)
    (match from_label with
     | "rx" -> Processing
     | "tx" -> Queueing
     | "txstart" -> Transmission
     | _ -> Other)

(* The span of a non-empty trace whose first event is [first]. *)
let build ~vpn ~band (first : Hop_trace.event) events =
  let rec pairs acc = function
    | (a : Hop_trace.event) :: (b :: _ as rest) ->
      let seg =
        { node = a.node;
          next_node = b.node;
          kind = kind_of_pair ~from_label:a.label ~to_label:b.label;
          start_time = a.time;
          dwell = b.time -. a.time;
          from_label = a.label;
          to_label = b.label }
      in
      pairs (seg :: acc) rest
    | [ last ] -> (acc, last)
    | [] -> (acc, first)
  in
  let rev_segments, last = pairs [] events in
  let outcome =
    if String.equal last.label "deliver" then Delivered
    else if is_drop last.label then
      Dropped (String.sub last.label 5 (String.length last.label - 5))
    else In_flight
  in
  { uid = first.uid;
    vpn;
    band;
    start_time = first.time;
    end_time = last.time;
    outcome;
    segments = List.rev rev_segments }

let of_trace ?(vpn = -1) ?(band = -1) = function
  | [] -> None
  | first :: _ as events -> Some (build ~vpn ~band first events)

let total t = t.end_time -. t.start_time

let dwell_of_kind t k =
  List.fold_left
    (fun acc s -> if s.kind = k then acc +. s.dwell else acc)
    0.0 t.segments

(* --- sampler ----------------------------------------------------------- *)

(* Per-(vpn, band) head sampling: the 1st, (every+1)th, ... delivery of
   each key is reconstructed and kept; drops are always kept. Both
   retention rings are bounded, newest first. *)
type sampler = {
  counts : (int, int ref) Hashtbl.t;  (* key = vpn lsl 4 lor band *)
  mutable delivered : t list;
  mutable dropped : t list;
  mutable n_offered : int;
  mutable n_kept : int;
}

let every = 64
let keep = 32

let sampler () =
  { counts = Hashtbl.create 16; delivered = []; dropped = []; n_offered = 0;
    n_kept = 0 }

let truncate n l =
  let rec go i = function
    | [] -> []
    | _ when i >= n -> []
    | x :: rest -> x :: go (i + 1) rest
  in
  go 0 l

let key ~vpn ~band = (vpn lsl 4) lor (band land 0xF)

let offer s trace ~uid ~vpn ~band ~dropped =
  if !Control.enabled then begin
    s.n_offered <- s.n_offered + 1;
    let keep_it =
      if dropped then true
      else begin
        let k = key ~vpn ~band in
        (* [find] and [Not_found], not [find_opt]: no option box per
           delivered packet. *)
        let c =
          match Hashtbl.find s.counts k with
          | c -> c
          | exception Not_found ->
            let c = ref 0 in
            Hashtbl.add s.counts k c;
            c
        in
        let hit = !c mod every = 0 in
        incr c;
        hit
      end
    in
    if keep_it then
      match Hop_trace.trace trace ~uid with
      | [] -> ()
      | first :: _ as events ->
        let span = build ~vpn ~band first events in
        s.n_kept <- s.n_kept + 1;
        if dropped then s.dropped <- truncate keep (span :: s.dropped)
        else s.delivered <- truncate keep (span :: s.delivered)
  end

let delivered_spans s = List.rev s.delivered
let dropped_spans s = List.rev s.dropped
let offered s = s.n_offered
let kept s = s.n_kept

let clear s =
  Hashtbl.reset s.counts;
  s.delivered <- [];
  s.dropped <- [];
  s.n_offered <- 0;
  s.n_kept <- 0

(* --- export ------------------------------------------------------------ *)

let outcome_name = function
  | Delivered -> "delivered"
  | Dropped reason -> "dropped:" ^ reason
  | In_flight -> "in_flight"

let segment_to_json (s : segment) =
  Json.(
    Obj
      [ ("node", Int s.node); ("next_node", Int s.next_node);
        ("kind", String (kind_name s.kind)); ("start", Float s.start_time);
        ("dwell", Float s.dwell) ])

let to_json t =
  Json.(
    Obj
      [ ("uid", Int t.uid); ("vpn", Int t.vpn); ("band", Int t.band);
        ("start", Float t.start_time); ("end", Float t.end_time);
        ("outcome", String (outcome_name t.outcome));
        ("segments", List (List.map segment_to_json t.segments)) ])

let sampler_to_json s =
  Json.List (List.map to_json (delivered_spans s @ dropped_spans s))
