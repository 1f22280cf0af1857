(* The handle is shared across domains; the count lives in domain-local
   storage, so concurrent domains bump private cells and never lose
   increments to a read-modify-write race. Each domain therefore holds a
   partial count: [value] reads the calling domain's partial, and a
   harness combines partials with [Registry.snapshot] (taken inside the
   domain) + [Registry.absorb] (counters add).

   Every access resolves the cell with [Domain.DLS.get], an index into
   the domain's own key table, and writes nothing to the shared handle:
   two domains bumping the same counter touch no common cache line. *)

type cell = { mutable n : int }

type t = { key : cell Domain.DLS.key }

let make () = { key = Domain.DLS.new_key (fun () -> { n = 0 }) }

let[@inline] cell t = Domain.DLS.get t.key

let incr t =
  if !Control.enabled then begin
    let c = cell t in
    c.n <- c.n + 1
  end

let add t n =
  if !Control.enabled then begin
    let c = cell t in
    c.n <- c.n + n
  end

let set t n = if !Control.enabled then (cell t).n <- n

let value t = (cell t).n

let reset t = (cell t).n <- 0
