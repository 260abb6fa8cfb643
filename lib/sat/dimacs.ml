type cnf = { num_vars : int; clauses : Lit.t list list }

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let num_vars = ref (-1) in
  let num_clauses = ref (-1) in
  let clauses = ref [] in
  let current = ref [] in
  let handle_token tok =
    match int_of_string_opt tok with
    | None -> failwith (Printf.sprintf "Dimacs: bad literal %S" tok)
    | Some 0 ->
      clauses := List.rev !current :: !clauses;
      current := []
    | Some n ->
      if !num_vars < 0 then failwith "Dimacs: literal before problem line";
      if abs n > !num_vars then
        failwith (Printf.sprintf "Dimacs: literal %d out of range" n);
      current := Lit.of_dimacs n :: !current
  in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = 'c' then ()
      else if line.[0] = 'p' then begin
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "p"; "cnf"; v; c ] ->
          (match (int_of_string_opt v, int_of_string_opt c) with
          | Some v, Some c ->
            num_vars := v;
            num_clauses := c
          | _ -> failwith "Dimacs: bad problem line")
        | _ -> failwith "Dimacs: bad problem line"
      end
      else
        String.split_on_char ' ' line
        |> List.filter (( <> ) "")
        |> List.iter handle_token)
    lines;
  if !num_vars < 0 then failwith "Dimacs: missing problem line";
  if !current <> [] then failwith "Dimacs: clause not terminated by 0";
  let clauses = List.rev !clauses in
  if !num_clauses >= 0 && List.length clauses <> !num_clauses then
    failwith
      (Printf.sprintf "Dimacs: expected %d clauses, found %d" !num_clauses
         (List.length clauses));
  { num_vars = !num_vars; clauses }

let to_string cnf =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" cnf.num_vars (List.length cnf.clauses));
  List.iter
    (fun clause ->
      List.iter
        (fun l -> Buffer.add_string buf (Lit.to_string l ^ " "))
        clause;
      Buffer.add_string buf "0\n")
    cnf.clauses;
  Buffer.contents buf

let load solver cnf =
  let base = Solver.nvars solver in
  for _ = 1 to cnf.num_vars do
    ignore (Solver.new_var solver)
  done;
  List.iter
    (fun clause ->
      Solver.add_clause solver
        (List.map
           (fun l -> Lit.make (base + Lit.var l) (Lit.is_pos l))
           clause))
    cnf.clauses;
  base

let solver_lit ~base l = Lit.make (base + Lit.var l) (Lit.is_pos l)
