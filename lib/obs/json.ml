type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_to_buffer buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.add_char buf '"'

let rec to_buffer buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
    else Buffer.add_string buf "null"
  | String s -> escape_to_buffer buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, value) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to_buffer buf name;
        Buffer.add_char buf ':';
        to_buffer buf value)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let envelope ~schema ~version fields =
  Obj (("schema", String schema) :: ("version", Int version) :: fields)

let write_file path v =
  let oc = open_out path in
  output_string oc (to_string v);
  output_char oc '\n';
  close_out oc

(* --- parsing ----------------------------------------------------------- *)

(* A strict recursive-descent parser for the subset of JSON this module
   prints (which is all of JSON minus non-finite numbers).  It exists so
   that the repository can read its *own* artifacts back: journals and
   the serve protocol (lib/par, lib/serve) read their envelope lines
   back, and `dfv validate` checks uploaded artifacts in CI.  It is not
   a general-purpose JSON library: inputs it did not print may be
   rejected (e.g. numbers with exotic spellings), which is fine — a
   rejection is exactly the validation signal. *)

exception Parse of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> parse_error "expected '%c' at offset %d, got '%c'" c !pos c'
    | None -> parse_error "expected '%c' at offset %d, got end of input" c !pos
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let literal word v =
    let w = String.length word in
    if !pos + w <= n && String.sub s !pos w = word then begin
      pos := !pos + w;
      v
    end
    else parse_error "bad literal at offset %d" !pos
  in
  let utf8_of_code buf c =
    (* Encode the BMP codepoint from a \uXXXX escape as UTF-8. *)
    if c < 0x80 then Buffer.add_char buf (Char.chr c)
    else if c < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> parse_error "unterminated string at offset %d" !pos
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance (); Buffer.add_char buf '/'; go ()
        | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance (); Buffer.add_char buf '\012'; go ()
        | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
        | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
        | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then parse_error "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some c -> utf8_of_code buf c
          | None -> parse_error "bad \\u escape %S at offset %d" hex !pos);
          pos := !pos + 4;
          go ()
        | Some c -> parse_error "bad escape '\\%c' at offset %d" c !pos
        | None -> parse_error "unterminated escape at offset %d" !pos)
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    (* OCaml's conversions are laxer than the JSON grammar (leading
       zeros, underscores, hex), so validate the shape first:
       minus? (0 | nonzero digits) frac? exp? *)
    let valid =
      let n = String.length tok in
      let i = ref (if n > 0 && tok.[0] = '-' then 1 else 0) in
      let digit c = c >= '0' && c <= '9' in
      let run_digits () =
        let s = !i in
        while !i < n && digit tok.[!i] do
          incr i
        done;
        !i > s
      in
      let int_ok =
        if !i < n && tok.[!i] = '0' then (incr i; true) else run_digits ()
      in
      let frac_ok =
        if !i < n && tok.[!i] = '.' then (incr i; run_digits ()) else true
      in
      let exp_ok =
        if !i < n && (tok.[!i] = 'e' || tok.[!i] = 'E') then begin
          incr i;
          if !i < n && (tok.[!i] = '+' || tok.[!i] = '-') then incr i;
          run_digits ()
        end
        else true
      in
      n > 0 && int_ok && frac_ok && exp_ok && !i = n
    in
    if not valid then parse_error "bad number %S at offset %d" tok start;
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> parse_error "bad number %S at offset %d" tok start)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> parse_error "expected ',' or ']' at offset %d" !pos
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let name = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((name, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((name, v) :: acc)
          | _ -> parse_error "expected ',' or '}' at offset %d" !pos
        in
        Obj (fields [])
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> parse_error "unexpected '%c' at offset %d" c !pos
    | None -> parse_error "unexpected end of input at offset %d" !pos
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then parse_error "trailing garbage at offset %d" !pos;
    v
  with
  | v -> Ok v
  | exception Parse m -> Error m

(* --- accessors --------------------------------------------------------- *)

let field name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let string_field name v =
  match field name v with Some (String s) -> Some s | _ -> None

let int_field name v =
  match field name v with Some (Int i) -> Some i | _ -> None

let float_field name v =
  match field name v with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let required kind read v name =
  match read name v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "missing %s field %S" kind name)

let envelope_of v =
  match (string_field "schema" v, int_field "version" v) with
  | Some schema, Some version -> Some (schema, version)
  | _ -> None
