(* Summary keeps its float accumulators in one [floatarray] ([0] mean,
   [1] m2, [2] min, [3] max): a mixed record boxes every float store, so
   the flat array makes [add] four unboxed stores instead of fresh
   allocations. The Welford update keeps its textbook operation order,
   so every reported value is bit-identical to a boxed-record
   implementation (test/sim compares against one). *)
module Summary = struct
  type t = { mutable count : int; fl : floatarray }

  let f_mean = 0
  and f_m2 = 1
  and f_min = 2
  and f_max = 3

  let create () =
    let fl = Float.Array.make 4 0.0 in
    Float.Array.set fl f_min infinity;
    Float.Array.set fl f_max neg_infinity;
    { count = 0; fl }

  let[@inline] push s x =
    let fl = s.fl in
    s.count <- s.count + 1;
    let delta = x -. Float.Array.get fl f_mean in
    let mean = Float.Array.get fl f_mean +. (delta /. float_of_int s.count) in
    Float.Array.set fl f_mean mean;
    Float.Array.set fl f_m2 (Float.Array.get fl f_m2 +. (delta *. (x -. mean)));
    if x < Float.Array.get fl f_min then Float.Array.set fl f_min x;
    if x > Float.Array.get fl f_max then Float.Array.set fl f_max x

  let add s x = push s x

  let add_cell s cell = push s (Float.Array.get cell 0)

  let count s = s.count

  let mean s = if s.count = 0 then 0.0 else Float.Array.get s.fl f_mean

  (* Unbiased (n-1) sample variance — the estimator [merge]'s parallel
     m2 combination preserves, so a merged summary and a single-stream
     summary of the same data report the same value. *)
  let variance s =
    if s.count < 2 then 0.0
    else Float.Array.get s.fl f_m2 /. float_of_int (s.count - 1)

  let stddev s = sqrt (variance s)

  (* Empty summaries report 0.0, like [mean] — the +/-infinity sentinels
     used internally must not leak into reports or bench JSON, where a
     non-finite value is unrepresentable. *)
  let min s = if s.count = 0 then 0.0 else Float.Array.get s.fl f_min

  let max s = if s.count = 0 then 0.0 else Float.Array.get s.fl f_max

  (* Always a fresh summary: returning an input (or sharing its
     [floatarray]) would let a later [add] to one change the other. *)
  let merge a b =
    let copy s = { count = s.count; fl = Float.Array.copy s.fl } in
    if a.count = 0 then copy b
    else if b.count = 0 then copy a
    else begin
      let n = a.count + b.count in
      let a_mean = Float.Array.get a.fl f_mean in
      let delta = Float.Array.get b.fl f_mean -. a_mean in
      let fl = Float.Array.create 4 in
      Float.Array.set fl f_mean
        (a_mean +. (delta *. float_of_int b.count /. float_of_int n));
      Float.Array.set fl f_m2
        (Float.Array.get a.fl f_m2 +. Float.Array.get b.fl f_m2
         +. (delta *. delta *. float_of_int a.count *. float_of_int b.count
             /. float_of_int n));
      Float.Array.set fl f_min
        (Float.min (Float.Array.get a.fl f_min) (Float.Array.get b.fl f_min));
      Float.Array.set fl f_max
        (Float.max (Float.Array.get a.fl f_max) (Float.Array.get b.fl f_max));
      { count = n; fl }
    end

end

(* In-place sort of [a.(0 .. n-1)] in [Float.compare] order (nan
   first, -0 and +0 equal): an introsort — median-of-three quicksort
   with a heap-sort fallback once the recursion is 2·log2 n deep, then
   one insertion pass over the 16-element runs it leaves. Monomorphic
   and closure-free, so every element stays an unboxed float: the
   generic [Array.sort Float.compare] boxes both operands of each
   comparison. Helpers take indices, never float arguments, and the
   comparison is inlined (the float boxing rule, ARCHITECTURE). *)
module Fsort = struct
  (* [Float.compare x y < 0] without the call: nan sorts below every
     other value, and is equal to itself. *)
  let[@inline] lt (x : float) (y : float) = x < y || (x <> x && y = y)

  let[@inline] swap (a : float array) i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t

  (* Sift the value at [root] of the heap [a.(first ..)] of [len]
     elements down to its place. *)
  let sift_down (a : float array) first root len =
    let v = a.(first + root) in
    let i = ref root in
    let sifting = ref true in
    while !sifting do
      let c = (2 * !i) + 1 in
      if c >= len then sifting := false
      else begin
        let c =
          if c + 1 < len && lt a.(first + c) a.(first + c + 1) then c + 1
          else c
        in
        if lt v a.(first + c) then begin
          a.(first + !i) <- a.(first + c);
          i := c
        end
        else sifting := false
      end
    done;
    a.(first + !i) <- v

  let heap_sort (a : float array) first last =
    let len = last - first in
    for root = (len / 2) - 1 downto 0 do
      sift_down a first root len
    done;
    for k = len - 1 downto 1 do
      swap a first (first + k);
      sift_down a first 0 k
    done

  let run = 16

  (* Quicksort [first, last) down to runs of at most [run] elements.
     The pivot is the median of the first, middle and last elements,
     which also bounds both scans of the unguarded partition. *)
  let rec intro_loop (a : float array) first last depth =
    if last - first > run then begin
      if depth = 0 then heap_sort a first last
      else begin
        let x = a.(first)
        and y = a.(first + ((last - first) / 2))
        and z = a.(last - 1) in
        let pivot =
          if lt x y then (if lt y z then y else if lt x z then z else x)
          else if lt x z then x
          else if lt y z then z
          else y
        in
        let i = ref first and j = ref last in
        let cut = ref (-1) in
        while !cut < 0 do
          while lt a.(!i) pivot do incr i done;
          decr j;
          while lt pivot a.(!j) do decr j done;
          if !i >= !j then cut := !i
          else begin
            swap a !i !j;
            incr i
          end
        done;
        intro_loop a !cut last (depth - 1);
        intro_loop a first !cut (depth - 1)
      end
    end

  let insertion_sort (a : float array) n =
    for k = 1 to n - 1 do
      let v = a.(k) in
      let j = ref (k - 1) in
      while !j >= 0 && lt v a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done

  let sort_prefix (a : float array) n =
    let rec log2 k acc = if k <= 1 then acc else log2 (k lsr 1) (acc + 1) in
    intro_loop a 0 n (2 * log2 n 0);
    insertion_sort a n
end

module Samples = struct
  type t = {
    mutable data : float array;
    mutable size : int;
    mutable sorted : bool;
  }

  let create () = { data = [||]; size = 0; sorted = true }

  let[@inline] push s x =
    let cap = Array.length s.data in
    if s.size = cap then begin
      let ndata = Array.make (Stdlib.max 64 (2 * cap)) 0.0 in
      Array.blit s.data 0 ndata 0 s.size;
      s.data <- ndata
    end;
    s.data.(s.size) <- x;
    s.size <- s.size + 1;
    s.sorted <- false

  let add s x = push s x

  let add_cell s cell = push s (Float.Array.get cell 0)

  let count s = s.size

  (* Sorted in place: the live prefix is the only copy, and a later
     [add] appends past it and clears the flag. *)
  let ensure_sorted s =
    if not s.sorted then begin
      Fsort.sort_prefix s.data s.size;
      s.sorted <- true
    end

  let percentile s q =
    if q < 0.0 || q > 1.0 then
      invalid_arg "Samples.percentile: fraction outside [0, 1]";
    if s.size = 0 then 0.0
    else begin
      ensure_sorted s;
      let pos = q *. float_of_int (s.size - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = Stdlib.min (lo + 1) (s.size - 1) in
      let frac = pos -. float_of_int lo in
      (s.data.(lo) *. (1.0 -. frac)) +. (s.data.(hi) *. frac)
    end

  let median s = percentile s 0.5

  let mean s =
    if s.size = 0 then 0.0
    else begin
      let sum = ref 0.0 in
      for i = 0 to s.size - 1 do
        sum := !sum +. s.data.(i)
      done;
      !sum /. float_of_int s.size
    end

  let to_array s =
    ensure_sorted s;
    Array.sub s.data 0 s.size
end
