(** Typed benchmark tables, their CSV/stdout rendering and the one budget
    grammar that gates them. *)

type cell = Int of int | Str of string | Bool of bool | Float of float * int
type row = cell list
type t = { name : string; header : string list; rows : row list }

let make name header rows =
  let width = List.length header in
  List.iter
    (fun r ->
      if List.length r <> width then
        invalid_arg
          (Printf.sprintf "Panel.make %s: row of %d cells under %d columns"
             name (List.length r) width))
    rows;
  { name; header; rows }

let render = function
  | Int i -> string_of_int i
  | Str s -> s
  | Bool b -> string_of_bool b
  | Float (v, d) -> Printf.sprintf "%.*f" d v

let csv_row r = String.concat "," (List.map render r)

let write_csv t file =
  Out_channel.with_open_text file (fun oc ->
      List.iter
        (fun line -> output_string oc (line ^ "\n"))
        (String.concat "," t.header :: List.map csv_row t.rows))

let print t =
  let cells = List.map (List.map render) t.rows in
  let widths =
    List.fold_left
      (List.map2 (fun w s -> max w (String.length s)))
      (List.map String.length t.header)
      cells
  in
  (* numeric columns right-align; the first row decides the kind *)
  let right =
    match t.rows with
    | r :: _ -> List.map (function Int _ | Float _ -> true | _ -> false) r
    | [] -> List.map (fun _ -> false) t.header
  in
  let line strs =
    List.map2
      (fun (w, right) s ->
        let pad = String.make (w - String.length s) ' ' in
        if right then pad ^ s else s ^ pad)
      (List.combine widths right) strs
    |> String.concat "  " |> print_endline
  in
  Printf.printf "=== %s panel\n" t.name;
  line t.header;
  List.iter line cells;
  print_newline ()

let index t col =
  let rec go i = function
    | [] ->
        invalid_arg (Printf.sprintf "panel %s has no column %s" t.name col)
    | c :: _ when c = col -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.header

let get t row col = List.nth row (index t col)

let to_float = function
  | Int i -> float_of_int i
  | Float (v, _) -> v
  | c -> invalid_arg ("non-numeric cell " ^ render c)

let select t keys =
  let keys = List.map (fun (k, v) -> (index t k, v)) keys in
  List.filter
    (fun r -> List.for_all (fun (i, v) -> render (List.nth r i) = v) keys)
    t.rows

(* -- budgets --------------------------------------------------------------- *)

type cmp = Le | Ge

type budget = {
  loc : string;
  panel : string;
  keys : (string * string) list;
  metric : string;
  cmp : cmp;
  threshold : float;
}

let parse_budgets ~file contents =
  String.split_on_char '\n' contents
  |> List.mapi (fun i ln ->
         (Printf.sprintf "%s:%d" file (i + 1), String.trim ln))
  |> List.filter (fun (_, ln) -> ln <> "" && ln.[0] <> '#')
  |> List.map (fun (loc, ln) ->
         let bad why = failwith (Printf.sprintf "%s: %s in %S" loc why ln) in
         match String.split_on_char ',' ln with
         | [ panel; keys; metric; cmp; threshold ] ->
             let key kv =
               match String.index_opt kv '=' with
               | Some i when i > 0 ->
                   let n = String.length kv - i - 1 in
                   (String.sub kv 0 i, String.sub kv (i + 1) n)
               | _ -> bad ("key " ^ kv ^ " is not key=value")
             in
             let cmp =
               match cmp with
               | "<=" -> Le
               | ">=" -> Ge
               | s -> bad ("comparison " ^ s ^ " is not <= or >=")
             in
             let threshold =
               match float_of_string_opt threshold with
               | Some f -> f
               | None -> bad ("threshold " ^ threshold ^ " is not a number")
             in
             let keys = List.map key (String.split_on_char ';' keys) in
             { loc; panel; keys; metric; cmp; threshold }
         | _ -> bad "expected panel,key=v;...,metric,<=|>=,threshold")

type verdict = { budget : budget; worst : cell; matched : int; failed : int }

let check budgets panels =
  List.map
    (fun b ->
      let fail msg = failwith (b.loc ^ ": " ^ msg) in
      let p =
        match List.find_opt (fun p -> p.name = b.panel) panels with
        | Some p -> p
        | None -> fail ("unknown panel " ^ b.panel)
      in
      let values =
        try
          let col = index p b.metric in
          List.map
            (fun r -> (to_float (List.nth r col), List.nth r col))
            (select p b.keys)
        with Invalid_argument msg -> fail msg
      in
      (* a NaN metric holds no budget *)
      let holds (v, _) =
        match b.cmp with Le -> v <= b.threshold | Ge -> v >= b.threshold
      in
      (* nearest to, or furthest past, the threshold *)
      let sorted = List.sort (fun (v, _) (w, _) -> Float.compare v w) values in
      match if b.cmp = Le then List.rev sorted else sorted with
      | [] -> fail ("matches no row of panel " ^ p.name)
      | (_, worst) :: _ ->
          {
            budget = b;
            worst;
            matched = List.length values;
            failed = List.length (List.filter (fun x -> not (holds x)) values);
          })
    budgets

let verdict_to_string v =
  let b = v.budget in
  let ok = v.failed = 0 in
  Printf.sprintf "%-15s %s %s %s %s %s %g (%s of %d rows)"
    (if ok then "budget ok" else "BUDGET EXCEEDED")
    b.panel
    (String.concat ";" (List.map (fun (k, x) -> k ^ "=" ^ x) b.keys))
    b.metric (render v.worst)
    (match (b.cmp, ok) with
    | Le, true -> "<="
    | Le, false -> ">"
    | Ge, true -> ">="
    | Ge, false -> "<")
    b.threshold
    (if ok then "worst" else Printf.sprintf "%d failing" v.failed)
    v.matched
