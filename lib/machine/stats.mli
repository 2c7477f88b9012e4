(** Machine description statistics — the measurements behind the paper's
    Table 1 ("Maril machine description statistics: each column gives the
    section size in lines and number of items of a particular kind"). *)

type t = {
  s_name : string;
  declare_lines : int;
  cwvm_lines : int;
  instr_lines : int;
  regs : int;  (** %reg directives *)
  resources : int;
  clocks : int;
  elements : int;
  classes : int;  (** named packing classes *)
  aux_lats : int;
  glue_xforms : int;
  funcs : int;  (** *func escape instructions *)
  instrs : int;  (** %instr / %move directives, escapes included *)
}

val of_description : name:string -> string -> t
(** Parse the Maril source and measure it. Section line counts include
    every non-blank line between a section keyword and its closing
    brace. *)
