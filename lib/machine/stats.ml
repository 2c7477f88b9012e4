type t = {
  s_name : string;
  declare_lines : int;
  cwvm_lines : int;
  instr_lines : int;
  regs : int;
  resources : int;
  clocks : int;
  elements : int;
  classes : int;
  aux_lats : int;
  glue_xforms : int;
  funcs : int;
  instrs : int;
}

(* Count non-blank lines per section by scanning the source text: a line
   whose first word is a section keyword opens that section; a lone '}'
   closes it. *)
let section_lines src =
  let declare = ref 0 and cwvm = ref 0 and instr = ref 0 in
  let current = ref None in
  String.split_on_char '\n' src
  |> List.iter (fun line ->
         let stripped = String.trim line in
         if stripped <> "" then
           match !current with
           | None ->
               let starts p =
                 String.length stripped >= String.length p
                 && String.sub stripped 0 (String.length p) = p
               in
               if starts "declare" then current := Some declare
               else if starts "cwvm" then current := Some cwvm
               else if starts "instr" then current := Some instr
           | Some counter ->
               if stripped = "}" then current := None
               else incr counter);
  (!declare, !cwvm, !instr)

let of_description ~name src =
  let d = Parser.parse ~name ~file:("<" ^ name ^ ">") src in
  let declare_lines, cwvm_lines, instr_lines = section_lines src in
  let regs = ref 0
  and resources = ref 0
  and clocks = ref 0
  and elements = ref 0
  and classes = ref 0 in
  List.iter
    (fun (it : Ast.declare_item) ->
      match it with
      | Ast.Dreg _ -> incr regs
      | Ast.Dresource (rs, _) -> resources := !resources + List.length rs
      | Ast.Dclock (cs, _) -> clocks := !clocks + List.length cs
      | Ast.Delement (es, _) -> elements := !elements + List.length es
      | Ast.Dclass _ -> incr classes
      | Ast.Dequiv _ | Ast.Ddef _ | Ast.Dlabel _ | Ast.Dmemory _ -> ())
    d.Ast.d_declare;
  let aux = ref 0 and glue = ref 0 and funcs = ref 0 and instrs = ref 0 in
  List.iter
    (fun (it : Ast.instr_item) ->
      match it with
      | Ast.Iaux _ -> incr aux
      | Ast.Iglue _ -> incr glue
      | Ast.Iinstr i ->
          incr instrs;
          if i.Ast.i_escape then incr funcs)
    d.Ast.d_instr;
  {
    s_name = name;
    declare_lines;
    cwvm_lines;
    instr_lines;
    regs = !regs;
    resources = !resources;
    clocks = !clocks;
    elements = !elements;
    classes = !classes;
    aux_lats = !aux;
    glue_xforms = !glue;
    funcs = !funcs;
    instrs = !instrs;
  }
