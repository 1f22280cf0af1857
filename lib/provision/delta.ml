module T = Mvpn_telemetry
module Membership = Mvpn_core.Membership
module Mpbgp = Mvpn_routing.Mpbgp

let m_ops = T.Registry.counter "provision.delta.ops"
let m_touched = T.Registry.counter "provision.delta.touched_vrfs"

type stats = { ops : int; touched_vrfs : int; messages : int }

let apply t op =
  let touched =
    match op with
    | Portfolio.Add_site { customer; sid; pe } ->
      Compile.provision_site t ~customer ~sid ~pe
    | Portfolio.Remove_site { customer; sid } ->
      Compile.decommission_site t ~customer ~sid
    | Portfolio.Change_tier { customer; tier } ->
      Compile.retier t ~customer ~tier
  in
  T.Counter.incr m_ops;
  T.Counter.add m_touched touched;
  touched

let control_messages t =
  Membership.messages (Compile.membership t)
  + Mpbgp.messages_sent (Compile.mpbgp t)

let apply_all t ops =
  let m0 = control_messages t in
  let touched = List.fold_left (fun acc op -> acc + apply t op) 0 ops in
  { ops = List.length ops; touched_vrfs = touched;
    messages = control_messages t - m0 }

let oracle ?mode p ops = Compile.compile ?mode (Portfolio.apply_all p ops)

let validate = Compile.equal
