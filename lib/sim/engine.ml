let m_events = Mvpn_telemetry.Registry.counter "sim.events"
let m_scheduled = Mvpn_telemetry.Registry.counter "sim.scheduled"

type backend = Binary_heap | Calendar

(* Monomorphic variant dispatch: one predictable branch per queue op,
   no closure indirection on the hot path. *)
type queue =
  | Q_heap of (unit -> unit) Heap.t
  | Q_cal of (unit -> unit) Calendar.t

(* Key handed over through a floatarray cell: on either backend the
   key never crosses a call boundary as a float argument, so a schedule
   in steady state boxes nothing. *)
let q_push_at q kcell v =
  match q with
  | Q_heap h -> Heap.push_at h kcell v
  | Q_cal c -> Calendar.push_at c kcell v

let q_pop q =
  match q with
  | Q_heap h -> Heap.pop h
  | Q_cal c -> Calendar.pop c

let q_peek q =
  match q with
  | Q_heap h -> Heap.peek h
  | Q_cal c -> Calendar.peek c

let q_size q =
  match q with
  | Q_heap h -> Heap.size h
  | Q_cal c -> Calendar.size c

(* Physical-identity sentinel for [pop_due]: a static closure no user
   event can alias (every runtime-constructed closure is a distinct
   block). *)
let null_event : unit -> unit = fun () -> ()

let q_pop_due q ~bound ~strict ~key_out =
  match q with
  | Q_heap h -> Heap.pop_due h ~bound ~strict ~default:null_event ~key_out
  | Q_cal c -> Calendar.pop_due c ~bound ~strict ~default:null_event ~key_out

type t = {
  queue : queue;
  (* The clock: slot 0 holds the current time. A float field of this
     mixed record would box every store, one allocation per event; in
     a one-slot cell the per-event store is unboxed, and readers on the
     per-packet path take the cell itself ({!clock}), so the time
     crosses their calls unboxed too. *)
  clock : floatarray;
  mutable processed : int;
  mutable stopped : bool;
  (* Batched telemetry: inside a [run]/[run_before] window the
     sim.events / sim.scheduled counters accumulate in these plain ints
     and flush once at window exit, instead of paying a DLS counter
     write per event. Outside a window, writes stay immediate so tests
     that schedule or step by hand observe exact counters. *)
  mutable in_batch : bool;
  mutable batch_events : int;
  mutable batch_scheduled : int;
  mutable flush_hooks : (unit -> unit) list;
  (* Out-parameter cell for [pop_due]: popped keys cross the queue
     call unboxed, so the run loop allocates nothing per event. *)
  key_cell : floatarray;
  (* In-parameter cell for [q_push_at] — separate from [key_cell],
     which holds the in-flight event's key while its closure (and any
     schedule it performs) runs. *)
  push_cell : floatarray;
  (* In-parameter cell through which the boxed-delay entry points hand
     their delay to [schedule_cell]. *)
  delay_cell : floatarray;
  (* The bound of an outermost {!run} window. Window bounds reach
     [pop_due] through a cell, so a window (a {!run_before} with its
     caller's cell) boxes no float. *)
  until_cell : floatarray;
  (* Dispatch-cost ledger (see profile.ml). Disabled by default; the
     run loops pick a profiled or plain drain once per window, so the
     per-event path is untouched until [Profile.enable]. *)
  prof : Profile.t;
}

let create ?(backend = Calendar) () =
  let queue =
    match backend with
    | Binary_heap -> Q_heap (Heap.create ())
    | Calendar -> Q_cal (Calendar.create ())
  in
  { queue; clock = Float.Array.make 1 0.0; processed = 0; stopped = false;
    in_batch = false; batch_events = 0; batch_scheduled = 0;
    flush_hooks = []; key_cell = Float.Array.create 1;
    push_cell = Float.Array.create 1; delay_cell = Float.Array.create 1;
    until_cell = Float.Array.create 1; prof = Profile.create () }

let now e = Float.Array.get e.clock 0

let clock e = e.clock

let profiler e = e.prof

let in_batch e = e.in_batch

let on_flush e f = e.flush_hooks <- f :: e.flush_hooks

(* Accumulation is gated on the telemetry switch at event time (same
   observable semantics as an immediate Counter.incr); the flush write
   itself is forced on, since the switch may have been toggled between
   accumulation and window exit. *)
let flush_body e =
  List.iter (fun f -> f ()) e.flush_hooks;
  if e.batch_events <> 0 || e.batch_scheduled <> 0 then begin
    (* Forced on by hand rather than through [Control.with_enabled]:
       no closure per window, and two counter adds cannot raise. *)
    let enabled = Mvpn_telemetry.Control.enabled in
    let saved = !enabled in
    enabled := true;
    Mvpn_telemetry.Counter.add m_events e.batch_events;
    Mvpn_telemetry.Counter.add m_scheduled e.batch_scheduled;
    enabled := saved
  end;
  e.batch_events <- 0;
  e.batch_scheduled <- 0

(* The flush is already amortized once per batch window, so timing it
   costs two clock reads per window, not per event. *)
let flush_batch e =
  if Profile.enabled e.prof then begin
    let t0 = Profile.now_ns () in
    flush_body e;
    Profile.note_flush e.prof (Profile.now_ns () - t0)
  end
  else flush_body e

let note_scheduled e =
  if e.in_batch then begin
    if !Mvpn_telemetry.Control.enabled then
      e.batch_scheduled <- e.batch_scheduled + 1
  end
  else Mvpn_telemetry.Counter.incr m_scheduled

let check_finite what v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Engine.%s: time not finite" what)

(* The one relative-time scheduling path. The delay arrives in slot 0
   of [dcell], so a caller holding it in a per-object cell (a port's
   serialization time) schedules without boxing it. [x -. x = 0.0] is
   [Float.is_finite] unfolded (nan and the two infinities fail it) —
   the cross-module call, and the argument box it forces, stay off the
   per-event path. *)
let push_delay e dcell f =
  let delay = Float.Array.get dcell 0 in
  if not (delay -. delay = 0.0) then check_finite "schedule" delay;
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  note_scheduled e;
  Float.Array.set e.push_cell 0 (Float.Array.get e.clock 0 +. delay);
  q_push_at e.queue e.push_cell f

let schedule e ~delay f =
  Float.Array.set e.delay_cell 0 delay;
  push_delay e e.delay_cell f

(* The one absolute-time scheduling path; inlined, so [schedule_at]
   costs what it did before the cell entry point existed. *)
let[@inline] push_time e tcell f =
  let time = Float.Array.get tcell 0 in
  if not (time -. time = 0.0) then check_finite "schedule_at" time;
  if time < Float.Array.get e.clock 0 then
    invalid_arg "Engine.schedule_at: time in the past";
  note_scheduled e;
  q_push_at e.queue tcell f

let schedule_at e ~time f =
  Float.Array.set e.push_cell 0 time;
  push_time e e.push_cell f

let schedule_at_cell e tcell f = push_time e tcell f

(* [schedule] plus a per-kind count in the dispatch ledger. The kind
   is only consulted when profiling is on, so tagged call sites cost
   one predictable branch otherwise. *)
let schedule_cell e ~kind dcell f =
  if Profile.enabled e.prof then Profile.note_kind e.prof kind;
  push_delay e dcell f

let schedule_kind e ~kind ~delay f =
  Float.Array.set e.delay_cell 0 delay;
  schedule_cell e ~kind e.delay_cell f

let schedule_kind_at e ~kind ~time f =
  if Profile.enabled e.prof then Profile.note_kind e.prof kind;
  schedule_at e ~time f

(* The one fixed-interval tick. It re-arms relative to the tick that
   just ran ([~delay:interval]), not at [start + i * interval]: sample
   times are the running float sum, which the timeline exports carry
   byte-for-byte. The first tick past [until] runs as a no-op and does
   not re-arm, so a horizon-bounded tick lets a bare [run] drain. *)
let every e ~kind ~interval ?(until = infinity) f =
  if not (Float.is_finite interval && interval > 0.0) then
    invalid_arg
      (Printf.sprintf
         "Engine.every: interval must be finite and positive, got %g"
         interval);
  if Float.is_nan until || until < 0.0 then
    invalid_arg "Engine.every: until must be >= 0";
  let stopped = ref false in
  let rec tick () =
    if (not !stopped) && Float.Array.get e.clock 0 <= until then begin
      f ();
      schedule_kind e ~kind ~delay:interval tick
    end
  in
  schedule_kind e ~kind ~delay:interval tick;
  fun () -> stopped := true

let step e =
  match q_pop e.queue with
  | None -> false
  | Some (time, f) ->
    Float.Array.set e.clock 0 time;
    e.processed <- e.processed + 1;
    if e.in_batch then begin
      if !Mvpn_telemetry.Control.enabled then
        e.batch_events <- e.batch_events + 1
    end
    else Mvpn_telemetry.Counter.incr m_events;
    f ();
    true

let leave_window e =
  e.in_batch <- false;
  flush_batch e

(* The drains below bypass [step]'s peek/pop option churn: one
   [pop_due] per event returns the closure or the [null_event]
   sentinel, with the key through [key_cell] — zero allocation per
   event. [in_batch] is known true inside the window, so the batched
   counter branch is inlined. The profiled twin adds three monotonic
   clock reads per event (pop and handler deltas); a window picks its
   drain once, so the plain loop never tests the profiler. *)
(* Top-level loops, not local closures, so entering a window
   allocates nothing. *)
let rec plain_drain e ~bound ~strict =
  if not e.stopped then begin
    let f = q_pop_due e.queue ~bound ~strict ~key_out:e.key_cell in
    if f != null_event then begin
      Float.Array.set e.clock 0 (Float.Array.get e.key_cell 0);
      e.processed <- e.processed + 1;
      if !Mvpn_telemetry.Control.enabled then
        e.batch_events <- e.batch_events + 1;
      f ();
      plain_drain e ~bound ~strict
    end
  end

let rec profiled_drain e ~bound ~strict =
  if not e.stopped then begin
    let p = e.prof in
    let t0 = Profile.now_ns () in
    let f = q_pop_due e.queue ~bound ~strict ~key_out:e.key_cell in
    if f != null_event then begin
      Float.Array.set e.clock 0 (Float.Array.get e.key_cell 0);
      e.processed <- e.processed + 1;
      if !Mvpn_telemetry.Control.enabled then
        e.batch_events <- e.batch_events + 1;
      let t1 = Profile.now_ns () in
      f ();
      let t2 = Profile.now_ns () in
      Profile.note_event p ~pop_ns:(t1 - t0) ~handler_ns:(t2 - t1);
      profiled_drain e ~bound ~strict
    end
    else
      (* The unproductive final pop still cost a queue walk. *)
      Profile.note_pop p (Profile.now_ns () - t0)
  end

let drain e ~bound ~strict =
  if Profile.enabled e.prof then profiled_drain e ~bound ~strict
  else plain_drain e ~bound ~strict

(* A window's work: [drain], then, for an inclusive [run], the clock
   advance to its horizon. *)
let window_body e ~bound ~strict =
  drain e ~bound ~strict;
  let b = Float.Array.get bound 0 in
  if (not strict) && (not e.stopped) && Float.is_finite b
     && b > Float.Array.get e.clock 0
  then Float.Array.set e.clock 0 b

(* Run [window_body] as one batch window. Nested windows flush only at
   the outermost exit; an exception from an event still flushes, so no
   accumulated counts are lost, and then propagates. Written without
   [Fun.protect], whose closures would cost every window an
   allocation. *)
let window e ~bound ~strict =
  e.stopped <- false;
  if e.in_batch then window_body e ~bound ~strict
  else begin
    e.in_batch <- true;
    match window_body e ~bound ~strict with
    | () -> leave_window e
    | exception ex ->
      let bt = Printexc.get_raw_backtrace () in
      leave_window e;
      Printexc.raise_with_backtrace ex bt
  end

let run ?until e =
  (* A run nested in an event gets a cell of its own: the enclosing
     window's drain still reads [until_cell]. *)
  let bound = if e.in_batch then Float.Array.create 1 else e.until_cell in
  Float.Array.set bound 0 (match until with Some t -> t | None -> infinity);
  window e ~bound ~strict:false

let peek_time e = Option.map fst (q_peek e.queue)

(* Bounded-horizon drain for the parallel runner: process events with
   time strictly below [before], but do not advance [now] to the bound
   itself — the window bound is a synchronization artifact, not a
   simulated instant, and a later window (or the final inclusive [run])
   owns the events at the bound. The bound is the caller's cell, read
   once per pop, so a window allocates nothing. *)
let run_before e ~before = window e ~bound:before ~strict:true

let pending e = q_size e.queue

let processed e = e.processed

let stop e = e.stopped <- true
