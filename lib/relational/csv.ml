(* Hand-rolled CSV: commas, newlines, double-quote quoting. *)

type field = Quoted of string | Bare of string

let split_line line =
  let fields = ref [] in
  let buf = Buffer.create 16 in
  let n = String.length line in
  let rec bare i =
    if i >= n then finish_bare i
    else begin
      match line.[i] with
      | ',' -> finish_bare i
      | c ->
          Buffer.add_char buf c;
          bare (i + 1)
    end
  and finish_bare i =
    fields := Bare (String.trim (Buffer.contents buf)) :: !fields;
    Buffer.clear buf;
    if i < n then start (i + 1)
  and quoted i =
    if i >= n then invalid_arg "Csv: unterminated quote"
    else begin
      match line.[i] with
      | '"' when i + 1 < n && line.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          quoted (i + 2)
      | '"' -> finish_quoted (i + 1)
      | c ->
          Buffer.add_char buf c;
          quoted (i + 1)
    end
  and finish_quoted i =
    fields := Quoted (Buffer.contents buf) :: !fields;
    Buffer.clear buf;
    if i < n then
      if line.[i] = ',' then start (i + 1)
      else invalid_arg "Csv: text after closing quote"
  and start i =
    if i >= n then fields := Bare "" :: !fields
    else if line.[i] = '"' then quoted (i + 1)
    else bare i
  in
  start 0;
  List.rev !fields

let field_value = function
  | Quoted s -> Value.Str s
  | Bare s -> Value.parse s

let field_name = function Quoted s | Bare s -> s

let parse_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map (fun l ->
           if String.length l > 0 && l.[String.length l - 1] = '\r' then
             String.sub l 0 (String.length l - 1)
           else l)
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> invalid_arg "Csv: empty input"
  | header :: rows ->
      let names = List.map field_name (split_line header) in
      let schema = Schema.of_list names in
      let width = List.length names in
      let tuples =
        List.map
          (fun row ->
            let fields = split_line row in
            if List.length fields <> width then
              invalid_arg "Csv: ragged row"
            else Tuple.of_list (List.map field_value fields))
          rows
      in
      Relation.of_list schema tuples

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse_string (In_channel.input_all ic))

let quote s = "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""

(* A string is written bare only when it reads back ({!split_line} trims,
   {!Value.parse} types) as the same string: ["1"], ["true"] or [" a"]
   are quoted, as is anything holding a comma, a quote or a newline. *)
let string_text s =
  let reads_back () =
    match Value.parse (String.trim s) with
    | Value.Str s' -> String.equal s s'
    | _ -> false
  in
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s
     || not (reads_back ())
  then quote s
  else s

(* A float's text reads back ({!Value.parse}) as the same float: the first
   of 15, 16 and 17 significant digits that does, marked with a point when
   it would read as an integer. *)
let float_text f =
  let same s =
    Int64.equal
      (Int64.bits_of_float (float_of_string s))
      (Int64.bits_of_float f)
  in
  let s =
    match
      List.find_opt same
        [ Printf.sprintf "%.15g" f; Printf.sprintf "%.16g" f ]
    with
    | Some s -> s
    | None -> Printf.sprintf "%.17g" f
  in
  match int_of_string_opt s with Some _ -> s ^ "." | None -> s

let field_text = function
  | Value.Float f -> float_text f
  | Value.Str s -> string_text s
  | v -> Value.to_string v

let to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (String.concat "," (Schema.attributes (Relation.schema r)));
  Buffer.add_char buf '\n';
  Relation.iter
    (fun t ->
      Buffer.add_string buf
        (String.concat ","
           (List.map field_text (Tuple.to_list t)));
      Buffer.add_char buf '\n')
    r;
  Buffer.contents buf

let save path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string r))
