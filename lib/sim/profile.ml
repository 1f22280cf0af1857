(* Engine self-profiler: where does a dispatched event's wall time go?

   ROADMAP item 1 stalled on "the residual cost is event dispatch" with
   no instrument behind the claim. This ledger splits per-event wall
   time into the three places it can hide — the queue pop, the handler
   closure, and the batched telemetry flush — and counts scheduled
   events per handler kind, so the next fast-path lever (tx->propagate
   fusion, hook devirtualization) is chosen on measurement.

   Off by default and free when off: the engine picks a profiled or a
   plain run loop once per window, so the per-event path never carries
   a profiling branch, let alone a clock read, until [enable]. Numbers
   are wall-clock and host-dependent, so [publish] exports gauges only
   — never counters, which are gated byte-identical across shard
   counts. *)

(* --- handler kinds ----------------------------------------------------- *)

(* Kinds are registered process-wide at module-init time (like metric
   handles); the table is tiny and mutex-guarded. Counting happens at
   *schedule* time via [Engine.schedule_kind] — tagging at execution
   would mean storing kinds in the queue or wrapping closures, and a
   drained run executes exactly what it schedules, so the scheduled
   count is the executed count for whole-run profiles. *)

type kind = int

let kinds : (string * int) list ref = ref []

let kinds_mutex = Mutex.create ()

let register_kind name =
  Mutex.lock kinds_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock kinds_mutex)
    (fun () ->
       match List.assoc_opt name !kinds with
       | Some id -> id
       | None ->
         let id = List.length !kinds in
         kinds := (name, id) :: !kinds;
         id)

let kind_names () =
  Mutex.lock kinds_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock kinds_mutex)
    (fun () -> List.sort (fun (_, a) (_, b) -> compare a b) !kinds)

(* --- the ledger -------------------------------------------------------- *)

type t = {
  mutable enabled : bool;
  mutable pop_ns : int;
  mutable handler_ns : int;
  mutable flush_ns : int;
  mutable events : int;
  mutable kind_counts : int array;
}

let create () =
  { enabled = false; pop_ns = 0; handler_ns = 0; flush_ns = 0;
    events = 0; kind_counts = [||] }

let enabled t = t.enabled

let enable t = t.enabled <- true

let disable t = t.enabled <- false

let reset t =
  t.pop_ns <- 0;
  t.handler_ns <- 0;
  t.flush_ns <- 0;
  t.events <- 0;
  Array.fill t.kind_counts 0 (Array.length t.kind_counts) 0

(* Monotonic nanoseconds as a native int (63 bits spans ~292 years of
   uptime). The clock primitive is [@@noalloc] with an unboxed result,
   so a profiled loop reads time without allocating. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let note_event t ~pop_ns ~handler_ns =
  t.pop_ns <- t.pop_ns + pop_ns;
  t.handler_ns <- t.handler_ns + handler_ns;
  t.events <- t.events + 1

let note_pop t ns = t.pop_ns <- t.pop_ns + ns

let note_flush t ns = t.flush_ns <- t.flush_ns + ns

let note_kind t k =
  if k >= Array.length t.kind_counts then begin
    let grown = Array.make (k + 8) 0 in
    Array.blit t.kind_counts 0 grown 0 (Array.length t.kind_counts);
    t.kind_counts <- grown
  end;
  t.kind_counts.(k) <- t.kind_counts.(k) + 1

let pop_seconds t = float_of_int t.pop_ns *. 1e-9

let handler_seconds t = float_of_int t.handler_ns *. 1e-9

let flush_seconds t = float_of_int t.flush_ns *. 1e-9

let events t = t.events

let kind_count t k =
  if k < Array.length t.kind_counts then t.kind_counts.(k) else 0

(* --- export ------------------------------------------------------------ *)

module T = Mvpn_telemetry

let publish t =
  T.Control.with_enabled (fun () ->
      let g name = T.Registry.gauge ("sim.profile." ^ name) in
      T.Gauge.set (g "pop_s") (pop_seconds t);
      T.Gauge.set (g "handler_s") (handler_seconds t);
      T.Gauge.set (g "flush_s") (flush_seconds t);
      T.Gauge.set (g "events") (float_of_int t.events);
      List.iter
        (fun (name, id) ->
           T.Gauge.set (g ("kind." ^ name))
             (float_of_int (kind_count t id)))
        (kind_names ()))
