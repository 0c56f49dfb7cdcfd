(* The little JSON the benchmark reads and writes: its own result lines,
   result sets, and BENCHMARK.json. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let num_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num v ->
    if not (Float.is_finite v) then raise (Error "non-finite number");
    Buffer.add_string b (num_to_string v)
  | Str s -> Printf.bprintf b "%S" s
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        write b x)
      l;
    Buffer.add_char b ']'
  | Obj l ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_string b ", ";
        Printf.bprintf b "%S: " k;
        write b x)
      l;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at offset %d" what !i)) in
  let rec ws () =
    if !i < n && String.contains " \t\r\n" s.[!i] then begin
      incr i;
      ws ()
    end
  in
  let expect c =
    ws ();
    if !i < n && s.[!i] = c then incr i else fail (Printf.sprintf "expected %c" c)
  in
  let lit word v =
    if !i + String.length word <= n && String.sub s !i (String.length word) = word
    then begin
      i := !i + String.length word;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      let c = s.[!i] in
      incr i;
      match c with
      | '"' -> ()
      | '\\' ->
        if !i >= n then fail "bad escape";
        let e = s.[!i] in
        incr i;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !i + 4 > n then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !i 4) in
          i := !i + 4;
          if code < 128 then Buffer.add_char b (Char.chr code)
          else Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    if !i >= n then fail "unexpected end";
    match s.[!i] with
    | '{' ->
      incr i;
      ws ();
      if !i < n && s.[!i] = '}' then (incr i; Obj [])
      else
        let rec fields acc =
          let k = str () in
          expect ':';
          let v = value () in
          ws ();
          if !i < n && s.[!i] = ',' then (incr i; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
    | '[' ->
      incr i;
      ws ();
      if !i < n && s.[!i] = ']' then (incr i; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          if !i < n && s.[!i] = ',' then (incr i; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ ->
      let j = !i in
      while !i < n && String.contains "+-0123456789.eE" s.[!i] do
        incr i
      done;
      (match float_of_string_opt (String.sub s j (!i - j)) with
      | Some v when !i > j -> Num v
      | _ -> fail "bad number")
  in
  let v = value () in
  ws ();
  if !i <> n then fail "trailing input";
  v

let member k = function
  | Obj l -> (
    match List.assoc_opt k l with Some v -> v | None -> raise (Error ("missing " ^ k)))
  | _ -> raise (Error ("not an object looking up " ^ k))

let to_num = function Num v -> v | _ -> raise (Error "not a number")
let to_str = function Str s -> s | _ -> raise (Error "not a string")
let to_list = function Arr l -> l | _ -> raise (Error "not an array")
let to_bool = function Bool b -> b | _ -> raise (Error "not a boolean")
