(* Streaming SLO engine: sliding-window conformance, error budgets and
   multi-window burn-rate alerts per (vpn, band) objective.

   Time is divided into one-second buckets kept in a ring of 60 (the
   slow window). Each delivery/drop observation lands in the
   open bucket; when an observation (or an explicit {!advance}) moves
   time past a bucket boundary the closed bucket is evaluated: window
   statistics are recomputed, per-dimension violation state is
   re-derived (firing [Slo_violation]/[Slo_recovered] events on
   transitions) and the burn-rate alert updated ([Alert_fire] when both
   the fast and the slow window burn the error budget faster than the
   threshold, [Alert_clear] when the fast window cools down).

   A packet is "good" when it is delivered within the objective's
   latency bound; drops and late deliveries spend error budget. *)

type spec = {
  target : float;  (* required good fraction, e.g. 0.99 *)
  latency_p99 : float option;  (* seconds; also the per-packet good bound *)
  loss_ratio : float option;
  availability : float option;  (* min fraction of available seconds *)
}

let spec ?latency_p99 ?loss_ratio ?availability target =
  if target <= 0.0 || target >= 1.0 then
    invalid_arg "Slo.spec: target must be in (0, 1)";
  { target; latency_p99; loss_ratio; availability }

(* Per-bucket latency sketch: log buckets above 1 us, like {!Histogram}
   but flat ints so the whole bucket clears with one fill. *)
let lat_buckets = 40
let lat_lo = 1e-6

(* floor(log2 (v / lat_lo)), clamped: the IEEE exponent field read via
   [Int64.bits_of_float] (an unboxed external) — same result as the
   [Float.frexp] formulation but without allocating its result pair on
   every delivery. The [v < lat_lo] guard keeps the ratio normal.
   Inlined, so a latency read from a cell reaches it unboxed. *)
let[@inline] lat_index v =
  if v < lat_lo then 0
  else
    let e =
      Int64.to_int
        (Int64.logand
           (Int64.shift_right_logical (Int64.bits_of_float (v /. lat_lo)) 52)
           0x7FFL)
      - 1023
    in
    Int.min (lat_buckets - 1) (Int.max 0 e)

(* [lat_max] is a one-slot floatarray: a float field of this mixed
   record would be a pointer, so each new maximum would pay a
   write-barrier store of the caller's box. *)
type bucket = {
  mutable total : int;
  mutable bad : int;
  mutable drops : int;
  lat_max : floatarray;
  lat : int array;  (* deliveries by latency bucket *)
}

let new_bucket () =
  { total = 0; bad = 0; drops = 0; lat_max = Float.Array.make 1 0.0;
    lat = Array.make lat_buckets 0 }

let clear_bucket b =
  b.total <- 0;
  b.bad <- 0;
  b.drops <- 0;
  Float.Array.set b.lat_max 0 0.0;
  Array.fill b.lat 0 lat_buckets 0

(* Slots of an objective's [stats]: the last evaluated window
   statistics, for reports. *)
let s_p99 = 0
let s_loss = 1
let s_avail = 2
let s_burn_fast = 3
let s_burn_slow = 4

type objective = {
  vpn : int;
  band : int;
  spec : spec;
  buckets : bucket array;
  mutable cur : int;  (* absolute index of the open bucket *)
  mutable cum_total : int;
  mutable cum_bad : int;
  mutable cum_drops : int;
  (* Violation state per dimension, re-derived at every bucket close. *)
  mutable viol_latency : bool;
  mutable viol_loss : bool;
  mutable viol_avail : bool;
  mutable alerting : bool;
  (* The [s_*] statistics in one floatarray: a float field of this
     mixed record would box every store. *)
  stats : floatarray;
}

(* Window settings: 1 s buckets, a 5-bucket fast window and a
   60-bucket slow window; an alert needs a burn of 2x the sustainable
   rate, and a window judges latency or loss from 5 samples on. *)
let bucket_width = 1.0
let fast_n = 5
let slow_n = 60
let burn_threshold = 2.0
let min_samples = 5

(* The per-fate lookup index: int keys, an OCaml hash and [Int.equal],
   so a lookup makes no C call (the generic table's [caml_hash] and
   [compare_val]). The hash folds high bits down, so keys that differ
   only in the vpn spread over the buckets. *)
module Key_tbl = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal

    let hash k =
      let h = k * 0x9E3779B1 in
      (h lxor (h lsr 16)) land max_int
  end)

type t = {
  objectives : (int, objective) Hashtbl.t;  (* key = vpn lsl 4 lor band *)
  index : objective Key_tbl.t;  (* the same objectives, for the observers *)
  (* The objectives in [Hashtbl.iter] order, the order {!advance}
     closes them in; rebuilt after a declaration. *)
  mutable ordered : objective array;
  mutable ordered_stale : bool;
  (* Window-close scratch: the merged latency sketch and, in slot 0,
     the window's largest latency. *)
  merged : int array;
  vmax : floatarray;
  events : Event_log.t;
  global : bool;  (* books transitions in the global slo.* counters *)
}

let m_violation = Registry.counter "slo.violation"
let m_recovered = Registry.counter "slo.recovered"
let m_alert_fire = Registry.counter "slo.alert_fire"
let m_alert_clear = Registry.counter "slo.alert_clear"

(* An engine with a private log is private throughout: the global
   counters count what the global log records. *)
let create ?events () =
  let events, global =
    match events with
    | Some events -> (events, false)
    | None -> (Registry.events (), true)
  in
  { objectives = Hashtbl.create 16; index = Key_tbl.create 16;
    ordered = [||]; ordered_stale = false;
    merged = Array.make lat_buckets 0; vmax = Float.Array.make 1 0.0;
    events; global }

let key ~vpn ~band = (vpn lsl 4) lor (band land 0xF)

let declare t ~vpn ~band spec =
  let k = key ~vpn ~band in
  if not (Hashtbl.mem t.objectives k) then begin
    let stats = Float.Array.make 5 0.0 in
    Float.Array.set stats s_avail 1.0;
    let obj =
      { vpn; band; spec;
        buckets = Array.init slow_n (fun _ -> new_bucket ());
        cur = 0; cum_total = 0; cum_bad = 0; cum_drops = 0;
        viol_latency = false; viol_loss = false; viol_avail = false;
        alerting = false; stats }
    in
    Hashtbl.add t.objectives k obj;
    Key_tbl.add t.index k obj;
    t.ordered_stale <- true
  end

(* --- window evaluation ------------------------------------------------- *)

(* Windows are the last [k] buckets ending at absolute index [upto]
   (inclusive); valid for k <= slow_n since older slots have been
   recycled. Every statistic below is an int loop over them, and each
   float result lands in a cell or in [stats], so a close allocates
   nothing but the events of its transitions. *)

(* Merge the fast window's latency sketches into [t.merged] and its
   largest latency into [t.vmax]; return its delivery count. *)
let merge_window t obj ~upto ~k =
  let merged = t.merged in
  Array.fill merged 0 lat_buckets 0;
  Float.Array.set t.vmax 0 0.0;
  let n = ref 0 in
  for b = max 0 (upto - k + 1) to upto do
    let bk = obj.buckets.(b mod slow_n) in
    for i = 0 to lat_buckets - 1 do
      merged.(i) <- merged.(i) + bk.lat.(i)
    done;
    n := !n + bk.total - bk.drops;
    (* [Float.max] written out, as below: a call would box its float
       arguments, and on latencies, never NaN nor negative, the
       comparison gives the same result. *)
    if Float.Array.get bk.lat_max 0 > Float.Array.get t.vmax 0 then
      Float.Array.set t.vmax 0 (Float.Array.get bk.lat_max 0)
  done;
  !n

(* Store in [stats] the p99 of a window [merge_window] just merged from
   [n > 0] deliveries: the upper edge of the sketch bucket holding the
   99th percentile, capped by the window's largest latency. *)
let window_p99 t obj ~n =
  let merged = t.merged in
  let target = Stdlib.max 1 (int_of_float (ceil (0.99 *. float_of_int n))) in
  let i = ref 0 and cum = ref 0 in
  while !i < lat_buckets
        && not (!cum + merged.(!i) >= target && merged.(!i) > 0) do
    cum := !cum + merged.(!i);
    incr i
  done;
  let vmax = Float.Array.get t.vmax 0 in
  Float.Array.set obj.stats s_p99
    (if !i >= lat_buckets then vmax
     else
       let edge = lat_lo *. Float.pow 2.0 (float_of_int (!i + 1)) in
       (* [Float.min vmax edge], written out. *)
       if edge > vmax then vmax else edge)

let[@inline] burn_of ~target ~bad ~total =
  if total = 0 then 0.0
  else
    let frac = float_of_int bad /. float_of_int total in
    let budget = 1.0 -. target in
    (* [Float.max budget 1e-9], written out. *)
    frac /. (if 1e-9 > budget then 1e-9 else budget)

(* A dimension's state flipped at the close of bucket [closing]: book
   and log it. Called on a flip only, so its float arguments are boxed
   only then. *)
let flip t obj ~closing ~dimension ~value ~bound ~now =
  let time = float_of_int (closing + 1) *. bucket_width in
  if now then begin
    if t.global then Counter.incr m_violation;
    Event_log.record t.events ~time
      (Event_log.Slo_violation
         { vpn = obj.vpn; band = obj.band; dimension; value; bound })
  end
  else begin
    if t.global then Counter.incr m_recovered;
    Event_log.record t.events ~time
      (Event_log.Slo_recovered
         { vpn = obj.vpn; band = obj.band; dimension; value; bound })
  end

(* Evaluate objective state as of the close of absolute bucket
   [closing] (windows end at that bucket). *)
let evaluate t obj ~closing =
  let stats = obj.stats in
  let fast_bad = ref 0 and fast_total = ref 0 and fast_drops = ref 0 in
  for b = max 0 (closing - fast_n + 1) to closing do
    let bk = obj.buckets.(b mod slow_n) in
    fast_bad := !fast_bad + bk.bad;
    fast_total := !fast_total + bk.total;
    fast_drops := !fast_drops + bk.drops
  done;
  (* [down] counts the slow window's seconds with traffic in which
     every packet was dropped. *)
  let slow_bad = ref 0 and slow_total = ref 0 in
  let down = ref 0 and with_traffic = ref 0 in
  for b = max 0 (closing - slow_n + 1) to closing do
    let bk = obj.buckets.(b mod slow_n) in
    slow_bad := !slow_bad + bk.bad;
    slow_total := !slow_total + bk.total;
    if bk.total <> 0 then begin
      if bk.drops = bk.total then incr down;
      incr with_traffic
    end
  done;
  let target = obj.spec.target in
  Float.Array.set stats s_burn_fast
    (burn_of ~target ~bad:!fast_bad ~total:!fast_total);
  Float.Array.set stats s_burn_slow
    (burn_of ~target ~bad:!slow_bad ~total:!slow_total);
  (* latency p99 over the fast window *)
  (match obj.spec.latency_p99 with
   | None -> ()
   | Some bound ->
     let n = merge_window t obj ~upto:closing ~k:fast_n in
     if n >= min_samples then begin
       window_p99 t obj ~n;
       let p99 = Float.Array.get stats s_p99 in
       let now = p99 > bound in
       if now <> obj.viol_latency then begin
         flip t obj ~closing ~dimension:"latency_p99" ~value:p99 ~bound ~now;
         obj.viol_latency <- now
       end
     end
     else if n = 0 && obj.viol_latency then begin
       (* No traffic in the window: latency conformance is moot. *)
       flip t obj ~closing ~dimension:"latency_p99" ~value:0.0 ~bound
         ~now:false;
       obj.viol_latency <- false
     end);
  (* loss ratio over the fast window *)
  (match obj.spec.loss_ratio with
   | None -> ()
   | Some bound ->
     let total = !fast_total in
     if total >= min_samples then begin
       let ratio = float_of_int !fast_drops /. float_of_int total in
       Float.Array.set stats s_loss ratio;
       let now = ratio > bound in
       if now <> obj.viol_loss then begin
         flip t obj ~closing ~dimension:"loss" ~value:ratio ~bound ~now;
         obj.viol_loss <- now
       end
     end
     else if total = 0 && obj.viol_loss then begin
       flip t obj ~closing ~dimension:"loss" ~value:0.0 ~bound ~now:false;
       obj.viol_loss <- false
     end);
  (* availability over the slow window: a second with traffic counts as
     down when every packet in it was dropped *)
  (match obj.spec.availability with
   | None -> ()
   | Some bound ->
     if !with_traffic > 0 then begin
       let avail =
         1.0 -. (float_of_int !down /. float_of_int !with_traffic)
       in
       Float.Array.set stats s_avail avail;
       let now = avail < bound in
       if now <> obj.viol_avail then begin
         flip t obj ~closing ~dimension:"availability" ~value:avail ~bound
           ~now;
         obj.viol_avail <- now
       end
     end);
  (* multi-window burn-rate alert *)
  if (not obj.alerting)
  && Float.Array.get stats s_burn_fast >= burn_threshold
  && Float.Array.get stats s_burn_slow >= burn_threshold
  then begin
    obj.alerting <- true;
    if t.global then Counter.incr m_alert_fire;
    Event_log.record t.events
      ~time:(float_of_int (closing + 1) *. bucket_width)
      (Event_log.Alert_fire
         { vpn = obj.vpn; band = obj.band;
           burn_fast = Float.Array.get stats s_burn_fast;
           burn_slow = Float.Array.get stats s_burn_slow })
  end
  else if obj.alerting && Float.Array.get stats s_burn_fast < burn_threshold
  then begin
    obj.alerting <- false;
    if t.global then Counter.incr m_alert_clear;
    Event_log.record t.events
      ~time:(float_of_int (closing + 1) *. bucket_width)
      (Event_log.Alert_clear
         { vpn = obj.vpn; band = obj.band;
           burn_fast = Float.Array.get stats s_burn_fast })
  end

let advance_obj t obj ~target_bucket =
  if target_bucket > obj.cur then begin
    (* A jump past the whole ring leaves only empty history; evaluate
       the transition once from just before the gap's end rather than
       spinning through millions of identical empty closes. *)
    if target_bucket - obj.cur > slow_n then begin
      Array.iter clear_bucket obj.buckets;
      obj.cur <- target_bucket - slow_n
    end;
    while obj.cur < target_bucket do
      evaluate t obj ~closing:obj.cur;
      obj.cur <- obj.cur + 1;
      clear_bucket obj.buckets.(obj.cur mod slow_n)
    done
  end

let[@inline] bucket_of time = int_of_float (time /. bucket_width)

let advance t ~time =
  if !Control.enabled then begin
    if t.ordered_stale then begin
      t.ordered <-
        Array.of_list
          (List.rev (Hashtbl.fold (fun _ obj acc -> obj :: acc) t.objectives []));
      t.ordered_stale <- false
    end;
    let target_bucket = bucket_of time in
    for i = 0 to Array.length t.ordered - 1 do
      advance_obj t t.ordered.(i) ~target_bucket
    done
  end

(* The open bucket of objective [obj] once time reaches [bucket]
   (a {!bucket_of} index: an int, so the call boxes nothing). *)
let open_bucket t obj ~bucket =
  advance_obj t obj ~target_bucket:bucket;
  obj.buckets.(obj.cur mod slow_n)

(* Per-packet observers: [Key_tbl.find] with its exception, not
   [find_opt], and the update written inline rather than passed as a
   closure, so an observation inside the open bucket allocates
   nothing. Each body is inlined into its float entry point and its
   cell entry point, so neither boxes the time or the latency. *)
let[@inline] delivery t ~vpn ~band ~time ~latency =
  if !Control.enabled then
    match Key_tbl.find t.index (key ~vpn ~band) with
    | exception Not_found -> ()
    | obj ->
      let bk = open_bucket t obj ~bucket:(bucket_of time) in
      bk.total <- bk.total + 1;
      let li = lat_index latency in
      bk.lat.(li) <- bk.lat.(li) + 1;
      if latency > Float.Array.get bk.lat_max 0 then
        Float.Array.set bk.lat_max 0 latency;
      obj.cum_total <- obj.cum_total + 1;
      let late =
        match obj.spec.latency_p99 with
        | Some bound -> latency > bound
        | None -> false
      in
      if late then begin
        bk.bad <- bk.bad + 1;
        obj.cum_bad <- obj.cum_bad + 1
      end

let observe_delivery t ~vpn ~band ~time ~latency =
  delivery t ~vpn ~band ~time ~latency

let observe_delivery_cell t ~vpn ~band ~clock ~latency =
  delivery t ~vpn ~band ~time:(Float.Array.get clock 0)
    ~latency:(Float.Array.get latency 0)

let observe_drop_at t ~vpn ~band ~bucket =
  if !Control.enabled then
    match Key_tbl.find t.index (key ~vpn ~band) with
    | exception Not_found -> ()
    | obj ->
      let bk = open_bucket t obj ~bucket in
      bk.total <- bk.total + 1;
      bk.bad <- bk.bad + 1;
      bk.drops <- bk.drops + 1;
      obj.cum_total <- obj.cum_total + 1;
      obj.cum_bad <- obj.cum_bad + 1;
      obj.cum_drops <- obj.cum_drops + 1

let observe_drop t ~vpn ~band ~time =
  observe_drop_at t ~vpn ~band ~bucket:(bucket_of time)

let observe_drop_cell t ~vpn ~band ~clock =
  observe_drop_at t ~vpn ~band ~bucket:(bucket_of (Float.Array.get clock 0))

(* --- reporting --------------------------------------------------------- *)

type report = {
  vpn : int;
  band : int;
  target : float;
  total : int;
  bad : int;
  drops : int;
  budget_allowed : float;
  budget_spent : float;
  budget_remaining : float;  (* fraction of the budget left, <= 1 *)
  latency_p99 : float;
  loss_ratio : float;
  availability : float;
  burn_fast : float;
  burn_slow : float;
  violations : string list;
  alerting : bool;
  in_budget : bool;
}

let report_of obj =
  let allowed = (1.0 -. obj.spec.target) *. float_of_int obj.cum_total in
  let spent = float_of_int obj.cum_bad in
  let remaining =
    if allowed <= 0.0 then (if obj.cum_bad = 0 then 1.0 else 0.0)
    else Float.max 0.0 (1.0 -. (spent /. allowed))
  in
  let violations =
    List.filter_map
      (fun (flag, name) -> if flag then Some name else None)
      [ (obj.viol_latency, "latency_p99"); (obj.viol_loss, "loss");
        (obj.viol_avail, "availability") ]
  in
  { vpn = obj.vpn; band = obj.band; target = obj.spec.target;
    total = obj.cum_total; bad = obj.cum_bad; drops = obj.cum_drops;
    budget_allowed = allowed; budget_spent = spent;
    budget_remaining = remaining;
    latency_p99 = Float.Array.get obj.stats s_p99;
    loss_ratio = Float.Array.get obj.stats s_loss;
    availability = Float.Array.get obj.stats s_avail;
    burn_fast = Float.Array.get obj.stats s_burn_fast;
    burn_slow = Float.Array.get obj.stats s_burn_slow; violations;
    alerting = obj.alerting;
    in_budget = spent <= allowed || obj.cum_total = 0 }

let reports t =
  Hashtbl.fold (fun _ obj acc -> report_of obj :: acc) t.objectives []
  |> List.sort (fun a b -> compare (a.vpn, a.band) (b.vpn, b.band))

let in_budget t =
  List.for_all (fun r -> r.in_budget) (reports t)

let violation_count t =
  Event_log.count_kind t.events "slo_violation"

let report_to_json r =
  Json.(
    Obj
      [ ("vpn", Int r.vpn); ("band", Int r.band); ("target", Float r.target);
        ("total", Int r.total); ("bad", Int r.bad); ("drops", Int r.drops);
        ("budget_allowed", Float r.budget_allowed);
        ("budget_spent", Float r.budget_spent);
        ("budget_remaining", Float r.budget_remaining);
        ("latency_p99", Float r.latency_p99);
        ("loss_ratio", Float r.loss_ratio);
        ("availability", Float r.availability);
        ("burn_fast", Float r.burn_fast); ("burn_slow", Float r.burn_slow);
        ("violations", List (List.map (fun d -> String d) r.violations));
        ("alerting", Bool r.alerting); ("in_budget", Bool r.in_budget) ])

let to_json t = Json.List (List.map report_to_json (reports t))

let publish_gauges ?(prefix = "slo") t =
  List.iter
    (fun r ->
       let g suffix v =
         Gauge.set
           (Registry.gauge
              (Printf.sprintf "%s.vpn%d.band%d.%s" prefix r.vpn r.band
                 suffix))
           v
       in
       g "budget_remaining" r.budget_remaining;
       g "burn_fast" r.burn_fast;
       g "burn_slow" r.burn_slow;
       g "in_budget" (if r.in_budget then 1.0 else 0.0))
    (reports t)

let pp ppf t =
  List.iter
    (fun r ->
       Format.fprintf ppf
         "vpn=%d band=%d target=%.3g total=%d bad=%d drops=%d \
          budget=%.1f%% burn=%.2g/%.2g%s%s@."
         r.vpn r.band r.target r.total r.bad r.drops
         (100.0 *. r.budget_remaining) r.burn_fast r.burn_slow
         (if r.violations = [] then ""
          else " VIOLATED:" ^ String.concat "," r.violations)
         (if r.alerting then " ALERTING" else ""))
    (reports t)
