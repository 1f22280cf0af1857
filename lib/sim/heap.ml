(* Binary min-heap over parallel arrays: entry [i] (in heap order) has
   its key in [keys] (a flat floatarray, so keys never box), its
   insertion seq in [seqs] and its payload in [vals]. The order is
   (key, seq), so equal keys pop in push order. Sifts move entries into
   a vacancy rather than swapping, and every key and seq store is a
   plain float or int store; only payload stores go through the write
   barrier. A vacated payload slot holds [hole], an immediate, so a
   popped entry's payload is unreachable from the heap at once (the
   Calendar's rule). *)
type 'a t = {
  mutable keys : floatarray;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
  (* One-slot staging cell for the boxed-key [push] entry point. *)
  scratch : floatarray;
}

(* The vacated-payload filler: an immediate, so it pins nothing and its
   store needs no remembered-set entry. Never returned to a caller. *)
let hole () : 'a = Obj.magic 0

let create () =
  { keys = Float.Array.create 0; seqs = [||]; vals = [||]; size = 0;
    next_seq = 0; scratch = Float.Array.make 1 0.0 }

let size h = h.size

let grow h =
  let cap = Array.length h.seqs in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let keys = Float.Array.create ncap in
  Float.Array.blit h.keys 0 keys 0 h.size;
  let seqs = Array.make ncap 0 in
  Array.blit h.seqs 0 seqs 0 h.size;
  let vals = Array.make ncap (hole ()) in
  Array.blit h.vals 0 vals 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.vals <- vals

(* Push with the key read from slot 0 of [kcell]: a float argument
   would be boxed at every call. The new entry's seq is the largest in
   the heap, so it moves above a parent only on a strictly smaller key. *)
let push_at h kcell value =
  if h.size = Array.length h.seqs then grow h;
  let key = Float.Array.get kcell 0 in
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if key < Float.Array.unsafe_get keys p then begin
      Float.Array.unsafe_set keys !i (Float.Array.unsafe_get keys p);
      seqs.(!i) <- seqs.(p);
      vals.(!i) <- vals.(p);
      i := p
    end
    else continue := false
  done;
  Float.Array.unsafe_set keys !i key;
  seqs.(!i) <- h.next_seq;
  vals.(!i) <- value;
  h.next_seq <- h.next_seq + 1

let push h key value =
  Float.Array.set h.scratch 0 key;
  push_at h h.scratch value

(* Drop the root (the caller has read it): the last entry fills the
   vacancy at the root and sinks below every child that orders before
   it. *)
let remove_root h =
  let n = h.size - 1 in
  h.size <- n;
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  if n > 0 then begin
    let key = Float.Array.unsafe_get keys n
    and seq = seqs.(n)
    and value = vals.(n) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n
          && (let kr = Float.Array.unsafe_get keys r
              and kl = Float.Array.unsafe_get keys l in
              kr < kl || (kr = kl && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        let kc = Float.Array.unsafe_get keys c in
        if kc < key || (kc = key && seqs.(c) < seq) then begin
          Float.Array.unsafe_set keys !i kc;
          seqs.(!i) <- seqs.(c);
          vals.(!i) <- vals.(c);
          i := c
        end
        else continue := false
      end
    done;
    Float.Array.unsafe_set keys !i key;
    seqs.(!i) <- seq;
    vals.(!i) <- value
  end;
  vals.(n) <- hole ()

let pop h =
  if h.size = 0 then None
  else begin
    let key = Float.Array.get h.keys 0 and value = h.vals.(0) in
    remove_root h;
    Some (key, value)
  end

let peek h =
  if h.size = 0 then None else Some (Float.Array.get h.keys 0, h.vals.(0))

(* Allocation-free pop for hot loops: a sentinel compare ([default],
   returned physically when nothing is due) instead of an option, and
   the bound and the key through floatarray cells, so both cross the
   call unboxed. *)
let pop_due h ~bound ~strict ~default ~key_out =
  if h.size = 0 then default
  else begin
    let key = Float.Array.unsafe_get h.keys 0 and b = Float.Array.get bound 0 in
    if if strict then key < b else key <= b then begin
      Float.Array.set key_out 0 key;
      let value = h.vals.(0) in
      remove_root h;
      value
    end
    else default
  end

let clear h =
  h.keys <- Float.Array.create 0;
  h.seqs <- [||];
  h.vals <- [||];
  h.size <- 0;
  h.next_seq <- 0
