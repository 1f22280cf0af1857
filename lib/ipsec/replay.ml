(* RFC 2401 suggests 64; the bitmap lives in one OCaml int, which caps
   it at 62. *)
let window = 62

type t = {
  mutable top : int;  (* highest accepted sequence number *)
  mutable bitmap : int;  (* bit i set = (top - i) seen; bit 0 is top *)
}

let create () = { top = 0; bitmap = 0 }

type verdict = Accepted | Duplicate | Too_old

let check t seq =
  if seq < 1 then invalid_arg "Replay.check: sequence numbers start at 1";
  if seq > t.top then begin
    let shift = seq - t.top in
    t.bitmap <- (if shift >= 63 then 0 else t.bitmap lsl shift) lor 1;
    t.top <- seq;
    Accepted
  end
  else begin
    let offset = t.top - seq in
    if offset >= window then Too_old
    else if t.bitmap land (1 lsl offset) <> 0 then Duplicate
    else begin
      t.bitmap <- t.bitmap lor (1 lsl offset);
      Accepted
    end
  end

let highest_seen t = t.top
