type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Exact of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let schema_version = 1

let envelope fields = Obj (("schema", Int schema_version) :: fields)

(* --- printer ------------------------------------------------------------ *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | (Float x | Exact x) when not (Float.is_finite x) -> Buffer.add_char b '0'
  | Float x -> Printf.bprintf b "%.9g" x
  | Exact x ->
    let s = Printf.sprintf "%.12g" x in
    Buffer.add_string b
      (if float_of_string s = x then s else Printf.sprintf "%.17g" x)
  | String s -> add_string b s
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
         if i > 0 then Buffer.add_char b ',';
         to_buffer b v)
      l;
    Buffer.add_char b ']'
  | Obj l ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char b ',';
         add_string b k;
         Buffer.add_char b ':';
         to_buffer b v)
      l;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* --- parser ------------------------------------------------------------- *)

exception Fail of int * string

let max_depth = 512

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let looking_at c = !pos < n && s.[!pos] = c in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    if looking_at c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else fail ("invalid literal, expected " ^ word)
  in
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        if !pos >= n then fail "invalid \\u escape"
        else
          match s.[!pos] with
          | '0' .. '9' as c -> Char.code c - 48
          | 'a' .. 'f' as c -> Char.code c - 87
          | 'A' .. 'F' as c -> Char.code c - 55
          | _ -> fail "invalid \\u escape"
      in
      incr pos;
      v := (!v lsl 4) lor d
    done;
    !v
  in
  (* A high surrogate followed by an escaped low one is one code point;
     an unpaired surrogate decodes to U+FFFD. *)
  let unicode b =
    let u = hex4 () in
    let u =
      if u >= 0xD800 && u <= 0xDBFF && looking_at '\\' && !pos + 1 < n
         && s.[!pos + 1] = 'u'
      then begin
        let save = !pos in
        pos := !pos + 2;
        let lo = hex4 () in
        if lo >= 0xDC00 && lo <= 0xDFFF then
          0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
        else begin
          pos := save;
          u
        end
      end
      else u
    in
    Buffer.add_utf_8_uchar b
      (if Uchar.is_valid u then Uchar.of_int u else Uchar.rep)
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        (match c with
         | '"' | '\\' | '/' -> Buffer.add_char b c
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' -> unicode b
         | _ ->
           decr pos;
           fail "invalid escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let digit () = !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' in
    let digits () =
      if not (digit ()) then fail "expected digit";
      while digit () do incr pos done
    in
    if looking_at '-' then incr pos;
    if looking_at '0' then incr pos else digits ();
    let frac = looking_at '.' in
    if frac then begin
      incr pos;
      digits ()
    end;
    let exp = looking_at 'e' || looking_at 'E' in
    if exp then begin
      incr pos;
      if looking_at '+' || looking_at '-' then incr pos;
      digits ()
    end;
    let lit = String.sub s start (!pos - start) in
    let at_start msg =
      pos := start;
      fail msg
    in
    if frac || exp || lit = "-0" then
      match float_of_string_opt lit with
      | Some x when Float.is_finite x -> Float x
      | _ -> at_start "number out of range"
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> at_start "integer out of range"
  in
  let sequence close item =
    skip_ws ();
    if looking_at close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        if looking_at ',' then begin
          incr pos;
          go acc
        end
        else if looking_at close then begin
          incr pos;
          List.rev acc
        end
        else fail (Printf.sprintf "expected ',' or %C" close)
      in
      go []
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '"' -> String (string ())
    | '{' ->
      incr pos;
      Obj
        (sequence '}' (fun () ->
             skip_ws ();
             let k = string () in
             skip_ws ();
             expect ':';
             (k, value (depth + 1))))
    | '[' ->
      incr pos;
      List (sequence ']' (fun () -> value (depth + 1)))
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after JSON value";
    v
  with
  | v -> Ok v
  | exception Fail (offset, msg) -> Error (offset, msg)
