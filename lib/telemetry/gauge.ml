(* Shared handle, per-domain value cell — see counter.ml for the
   storage discipline. *)
type t = { cell : float ref Domain.DLS.key }

let make () = { cell = Domain.DLS.new_key (fun () -> ref 0.0) }

let cell t = Domain.DLS.get t.cell

let set t v = if !Control.enabled then cell t := v

let value t = !(cell t)

let reset t = cell t := 0.0
