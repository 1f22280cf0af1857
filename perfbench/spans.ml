(* Span recorder for the traced run: one span around each call the
   benchmark makes into a layer (build, arm, Engine.run, SLO replay,
   each isolated replay, compile, each delta, the oracle). Spans are
   kept in memory and written once, at the end, as Chrome trace-event
   JSON. Off by default, so the untraced runs pay one branch. *)

type span = { id : int; parent : int; name : string; t0 : int; t1 : int }

let on = ref false
let next = ref 1
let stack = ref []
let spans = ref []

let enable () = on := true

let with_span name f =
  if not !on then f ()
  else begin
    let id = !next in
    incr next;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = Stat.now_ns () in
    Fun.protect
      ~finally:(fun () ->
          stack := List.tl !stack;
          spans := { id; parent; name; t0; t1 = Stat.now_ns () } :: !spans)
      f
  end

let count () = List.length !spans

(* Self time of every span name: duration minus the part its direct
   children cover, summed per name, in seconds. *)
let self_seconds () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
       let c = Option.value ~default:0 (Hashtbl.find_opt child s.parent) in
       Hashtbl.replace child s.parent (c + (s.t1 - s.t0)))
    !spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
       let own =
         s.t1 - s.t0 - Option.value ~default:0 (Hashtbl.find_opt child s.id)
       in
       let c = Option.value ~default:0 (Hashtbl.find_opt self s.name) in
       Hashtbl.replace self s.name (c + own))
    !spans;
  Hashtbl.fold (fun k v acc -> (k, float_of_int v /. 1e9) :: acc) self []
  |> List.sort compare

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write path =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  let base = List.fold_left (fun m s -> min m s.t0) max_int !spans in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
       Printf.fprintf oc
         "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
          \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
         (if i = 0 then "" else ",")
         s.name
         (float_of_int (s.t0 - base) /. 1e3)
         (float_of_int (s.t1 - s.t0) /. 1e3)
         s.id s.parent)
    (List.rev !spans);
  output_string oc "\n]}\n";
  close_out oc
