type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    (* JSON has no nan/inf; emit null so the document always validates. *)
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.12g" f)
    else Buffer.add_string buf "null"
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        write buf (String k);
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 4096 in
  write buf v;
  Buffer.contents buf

(* -- parsing: recursive descent over the grammar this module emits -- *)

exception Parse_error of string

let of_string s =
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail (Printf.sprintf "expected %c, found %c" c got)
    | None -> fail (Printf.sprintf "expected %c, found end of input" c)
  in
  let literal word value =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_hex4 () =
    if !pos + 4 > len then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char buf '"'; advance ()
         | Some '\\' -> Buffer.add_char buf '\\'; advance ()
         | Some '/' -> Buffer.add_char buf '/'; advance ()
         | Some 'n' -> Buffer.add_char buf '\n'; advance ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance ()
         | Some 't' -> Buffer.add_char buf '\t'; advance ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance ()
         | Some 'f' -> Buffer.add_char buf '\012'; advance ()
         | Some 'u' ->
           advance ();
           let v = try parse_hex4 () with Failure _ -> fail "bad \\u escape" in
           (* The emitter only writes \u00XX control codes; decode the
              Latin-1 range bytewise and pass anything else through as a
              UTF-8 replacement-free question mark to stay total. *)
           if v < 0x100 then Buffer.add_char buf (Char.chr v) else Buffer.add_char buf '?'
         | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') ->
        advance ();
        go ()
      | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance ();
        go ()
      | _ -> ()
    in
    go ();
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "malformed number"
    else begin
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "malformed number")
    end
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        let rec go () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items := parse_value () :: !items;
            go ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ] in array"
        in
        go ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        let rec go () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields := field () :: !fields;
            go ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or } in object"
        in
        go ();
        Obj (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  match parse_value () with
  | v ->
    skip_ws ();
    if !pos <> len then Error (Printf.sprintf "trailing garbage at offset %d" !pos) else Ok v
  | exception Parse_error msg -> Error msg

(* -- accessors for consumers of parsed documents -- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
