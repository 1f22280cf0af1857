(* Bounded ring of typed, timestamped operational events — the "what
   happened" companion to the metric registry's "how much". Recording
   overwrites the oldest entry and is a no-op while {!Control} is
   disabled; reading scans the ring (a forensics surface, not a hot
   path). Timestamps come from a pluggable clock so producers that do
   not own an engine (topology link flaps, dataplane recompiles) can
   still stamp simulation time. *)

type event =
  | Slo_violation of {
      vpn : int;
      band : int;
      dimension : string;
      value : float;
      bound : float;
    }
  | Slo_recovered of {
      vpn : int;
      band : int;
      dimension : string;
      value : float;
      bound : float;
    }
  | Alert_fire of { vpn : int; band : int; burn_fast : float; burn_slow : float }
  | Alert_clear of { vpn : int; band : int; burn_fast : float }
  | Link_down of { src : int; dst : int }
  | Link_up of { src : int; dst : int }
  | Recompile of { node : int }
  | Fault_injected of { fault : string; a : int; b : int; param : float }
  | Frr_switchover of { src : int; dst : int }
  | Fallback_engaged of { ingress : int; egress : int }
  | Lsp_restored of { ingress : int; egress : int }
  | Flap_damped of { src : int; dst : int; flaps : int }
  | Flap_released of { src : int; dst : int }
  | Resignal of { attempt : int; restored : int; still_down : int }
  | Invariant_violated of { invariant : string; detail : string }
  | Note of string

type entry = { seq : int; time : float; event : event }

let dummy = { seq = -1; time = 0.0; event = Note "" }

type t = {
  data : entry array;
  mutable pos : int;  (* next slot to overwrite *)
  mutable recorded : int;  (* total ever recorded *)
  mutable clock : unit -> float;
}

let create ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Event_log.create: capacity must be positive";
  { data = Array.make capacity dummy; pos = 0; recorded = 0;
    clock = (fun () -> 0.0) }

let set_clock t clock = t.clock <- clock

let recorded t = t.recorded

let record t ?time event =
  if !Control.enabled then begin
    let time = match time with Some x -> x | None -> t.clock () in
    t.data.(t.pos) <- { seq = t.recorded; time; event };
    t.pos <- (t.pos + 1) mod Array.length t.data;
    t.recorded <- t.recorded + 1
  end

(* Oldest-first fold over live entries. *)
let fold f t init =
  let cap = Array.length t.data in
  let live = min t.recorded cap in
  let start = (t.pos - live + cap) mod cap in
  let acc = ref init in
  for i = 0 to live - 1 do
    acc := f !acc t.data.((start + i) mod cap)
  done;
  !acc

let entries t = List.rev (fold (fun acc e -> e :: acc) t [])

let recent t n =
  let all = entries t in
  let live = List.length all in
  if live <= n then all
  else List.filteri (fun i _ -> i >= live - n) all

let kind = function
  | Slo_violation _ -> "slo_violation"
  | Slo_recovered _ -> "slo_recovered"
  | Alert_fire _ -> "alert_fire"
  | Alert_clear _ -> "alert_clear"
  | Link_down _ -> "link_down"
  | Link_up _ -> "link_up"
  | Recompile _ -> "recompile"
  | Fault_injected _ -> "fault_injected"
  | Frr_switchover _ -> "frr_switchover"
  | Fallback_engaged _ -> "fallback_engaged"
  | Lsp_restored _ -> "lsp_restored"
  | Flap_damped _ -> "flap_damped"
  | Flap_released _ -> "flap_released"
  | Resignal _ -> "resignal"
  | Invariant_violated _ -> "invariant_violated"
  | Note _ -> "note"

let count_kind t k =
  fold (fun acc e -> if String.equal (kind e.event) k then acc + 1 else acc)
    t 0

let clear t =
  Array.fill t.data 0 (Array.length t.data) dummy;
  t.pos <- 0;
  t.recorded <- 0

(* --- export ------------------------------------------------------------ *)

let entry_to_json e =
  Json.(
    let detail =
      match e.event with
      | Slo_violation { vpn; band; dimension; value; bound }
      | Slo_recovered { vpn; band; dimension; value; bound } ->
        [ ("vpn", Int vpn); ("band", Int band); ("dimension", String dimension);
          ("value", Float value); ("bound", Float bound) ]
      | Alert_fire { vpn; band; burn_fast; burn_slow } ->
        [ ("vpn", Int vpn); ("band", Int band); ("burn_fast", Float burn_fast);
          ("burn_slow", Float burn_slow) ]
      | Alert_clear { vpn; band; burn_fast } ->
        [ ("vpn", Int vpn); ("band", Int band); ("burn_fast", Float burn_fast) ]
      | Link_down { src; dst } | Link_up { src; dst }
      | Frr_switchover { src; dst } | Flap_released { src; dst } ->
        [ ("src", Int src); ("dst", Int dst) ]
      | Recompile { node } -> [ ("node", Int node) ]
      | Fault_injected { fault; a; b; param } ->
        [ ("fault", String fault); ("a", Int a); ("b", Int b);
          ("param", Float param) ]
      | Fallback_engaged { ingress; egress } | Lsp_restored { ingress; egress }
        ->
        [ ("ingress", Int ingress); ("egress", Int egress) ]
      | Flap_damped { src; dst; flaps } ->
        [ ("src", Int src); ("dst", Int dst); ("flaps", Int flaps) ]
      | Resignal { attempt; restored; still_down } ->
        [ ("attempt", Int attempt); ("restored", Int restored);
          ("still_down", Int still_down) ]
      | Invariant_violated { invariant; detail } ->
        [ ("invariant", String invariant); ("detail", String detail) ]
      | Note text -> [ ("text", String text) ]
    in
    Obj
      (("seq", Int e.seq) :: ("time", Float e.time)
       :: ("kind", String (kind e.event)) :: detail))

let json_entries ?limit t =
  let es = match limit with Some n -> recent t n | None -> entries t in
  Json.List (List.map entry_to_json es)

let pp_event ppf = function
  | Slo_violation { vpn; band; dimension; value; bound } ->
    Format.fprintf ppf "slo_violation vpn=%d band=%d %s=%.6g bound=%.6g" vpn
      band dimension value bound
  | Slo_recovered { vpn; band; dimension; value; bound } ->
    Format.fprintf ppf "slo_recovered vpn=%d band=%d %s=%.6g bound=%.6g" vpn
      band dimension value bound
  | Alert_fire { vpn; band; burn_fast; burn_slow } ->
    Format.fprintf ppf "alert_fire vpn=%d band=%d burn=%.3g/%.3g" vpn band
      burn_fast burn_slow
  | Alert_clear { vpn; band; burn_fast } ->
    Format.fprintf ppf "alert_clear vpn=%d band=%d burn=%.3g" vpn band
      burn_fast
  | Link_down { src; dst } -> Format.fprintf ppf "link_down %d<->%d" src dst
  | Link_up { src; dst } -> Format.fprintf ppf "link_up %d<->%d" src dst
  | Recompile { node } -> Format.fprintf ppf "recompile node=%d" node
  | Fault_injected { fault; a; b; param } ->
    Format.fprintf ppf "fault %s %d<->%d param=%.3g" fault a b param
  | Frr_switchover { src; dst } ->
    Format.fprintf ppf "frr_switchover %d->%d" src dst
  | Fallback_engaged { ingress; egress } ->
    Format.fprintf ppf "fallback_engaged pe%d->pe%d" ingress egress
  | Lsp_restored { ingress; egress } ->
    Format.fprintf ppf "lsp_restored pe%d->pe%d" ingress egress
  | Flap_damped { src; dst; flaps } ->
    Format.fprintf ppf "flap_damped %d<->%d after %d flaps" src dst flaps
  | Flap_released { src; dst } ->
    Format.fprintf ppf "flap_released %d<->%d" src dst
  | Resignal { attempt; restored; still_down } ->
    Format.fprintf ppf "resignal attempt=%d restored=%d still_down=%d"
      attempt restored still_down
  | Invariant_violated { invariant; detail } ->
    Format.fprintf ppf "invariant_violated %s: %s" invariant detail
  | Note text -> Format.fprintf ppf "note %s" text

let pp_entry ppf e =
  Format.fprintf ppf "%.6f #%d %a" e.time e.seq pp_event e.event
