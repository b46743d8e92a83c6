(* Tseitin encoding of AIG cones into a fresh SAT solver, independent of
   the checker's own encoder in {!Cec}: a test oracle for the solver and
   for the AIG semantics.  Every node in the cones gets a variable. *)

type cnf_map = { var_of_node : int array; solver : Sat.t }

let cnf_lit m l =
  let v = m.var_of_node.(Aig.node_of l) in
  if v = 0 then invalid_arg "Cnf_oracle.cnf_lit: node not encoded";
  if Aig.is_complement l then -v else v

let to_cnf g ~roots =
  let solver = Sat.create () in
  let var_of_node = Array.make (Aig.node_count g) 0 in
  (* mark cones *)
  let rec mark n =
    if var_of_node.(n) = 0 then begin
      var_of_node.(n) <- Sat.new_var solver;
      if n > 0 && not (Aig.is_input_node g n) then begin
        let f0, f1 = Aig.fanins g n in
        mark (Aig.node_of f0);
        mark (Aig.node_of f1)
      end
    end
  in
  List.iter (fun l -> mark (Aig.node_of l)) roots;
  let m = { var_of_node; solver } in
  (* constant node, if referenced *)
  if var_of_node.(0) <> 0 then Sat.add_clause solver [ -var_of_node.(0) ];
  for n = 1 to Aig.node_count g - 1 do
    if var_of_node.(n) <> 0 && not (Aig.is_input_node g n) then begin
      let f0, f1 = Aig.fanins g n in
      let ln = var_of_node.(n) in
      let l0 = cnf_lit m f0 and l1 = cnf_lit m f1 in
      Sat.add_clause solver [ -ln; l0 ];
      Sat.add_clause solver [ -ln; l1 ];
      Sat.add_clause solver [ ln; -l0; -l1 ]
    end
  done;
  m
