(* Exports with no caller: lists every [val] of a [lib] interface,
   nested module signatures included, that no other compilation unit
   names. Tests, benches, tools, examples, the CLI and perfbench count
   as callers; a unit's own uses do not.

     dune build @check && ./_build/default/tools/exports.exe [BUILD_DIR]

   It reads the typed trees ([.cmti] for the interfaces, [.cmt] for the
   callers) that [dune build @check] writes under BUILD_DIR (default
   [_build/default]). A use is a value identifier; local module aliases
   ([module T = Mvpn_telemetry]) and library wrappers
   ([Mvpn_telemetry.Registry] is unit [Mvpn_telemetry__Registry]) are
   resolved first. A lib module used as a module expression (an
   [include], a functor argument) counts every value under it as used.
   Prints one line per unused export and exits 1 if there is any, 0
   otherwise. *)

open Typedtree

let dirs = [ "lib"; "bin"; "bench"; "tools"; "perfbench"; "test"; "examples" ]

(* Every file under [dir] whose name ends in [ext], dot-directories
   (dune's [.objs]) included. *)
let rec files ext dir =
  match Sys.readdir dir with
  | entries ->
    Array.fold_left
      (fun acc e ->
         let p = Filename.concat dir e in
         if Sys.is_directory p then files ext p @ acc
         else if Filename.check_suffix e ext then p :: acc
         else acc)
      [] entries
  | exception Sys_error _ -> []

(* --- exports ----------------------------------------------------------- *)

(* [(unit :: nested modules @ [name], location)] for every [val]. *)
let rec sig_exports prefix (s : signature) =
  List.concat_map
    (fun (item : signature_item) ->
       match item.sig_desc with
       | Tsig_value v -> [ (prefix @ [ v.val_name.txt ], v.val_loc) ]
       | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
         match md_type.mty_desc with
         | Tmty_signature s -> sig_exports (prefix @ [ m ]) s
         | _ -> [])
       | _ -> [])
    s.sig_items

(* --- uses -------------------------------------------------------------- *)

(* What a path names, as components from a compilation unit down;
   [None] for a path rooted in a local (non-alias) binding. [units]
   turns a library wrapper and its member into the member's unit. *)
let resolve ~units aliases path =
  let rec comps = function
    | Path.Pident id ->
      if Ident.global id then Some [ Ident.name id ]
      else Hashtbl.find_opt aliases (Ident.unique_name id)
    | Path.Pdot (p, s) -> Option.map (fun c -> c @ [ s ]) (comps p)
    | Path.Papply _ | Path.Pextra_ty _ -> None
  in
  let rec canon = function
    | w :: m :: rest when Hashtbl.mem units (w ^ "__" ^ m) ->
      canon ((w ^ "__" ^ m) :: rest)
    | c -> c
  in
  Option.map canon (comps path)

(* Value uses and module-expression uses of one implementation,
   outside [self]. *)
let scan_uses ~units ~self ~uses ~prefix_uses (str : structure) =
  let aliases = Hashtbl.create 16 in
  let resolve = resolve ~units aliases in
  let outside = function Some (u :: _ as c) when u <> self -> Some c | _ -> None in
  let key c = String.concat "." c in
  let alias_target (me : module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _)
      ->
      Some p
    | _ -> None
  in
  let alias id p =
    Option.iter (Hashtbl.replace aliases (Ident.unique_name id)) (resolve p)
  in
  let it =
    { Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
           match e.exp_desc with
           | Texp_letmodule (Some id, _, _, me, body) when alias_target me <> None ->
             Option.iter (alias id) (alias_target me);
             sub.expr sub body
           | _ ->
             (match e.exp_desc with
              | Texp_ident (p, _, _) ->
                Option.iter (fun c -> Hashtbl.replace uses (key c) ()) (outside (resolve p))
              | _ -> ());
             Tast_iterator.default_iterator.expr sub e);
      (* [module T = M] (or [let module T = M in]): an alias, not a use
         of all of M. *)
      module_binding =
        (fun sub mb ->
           match (mb.mb_id, alias_target mb.mb_expr) with
           | Some id, Some p -> alias id p
           | _ -> Tast_iterator.default_iterator.module_binding sub mb);
      (* [open M] brings names into scope; their uses resolve through M. *)
      open_declaration = (fun _ _ -> ());
      module_expr =
        (fun sub me ->
           (match me.mod_desc with
            | Tmod_ident (p, _) ->
              Option.iter (fun c -> prefix_uses := key c :: !prefix_uses) (outside (resolve p))
            | _ -> ());
           Tast_iterator.default_iterator.module_expr sub me) }
  in
  it.structure it str

(* [Mvpn_telemetry__Registry.scoped] as [Mvpn_telemetry.Registry.scoped]. *)
let dotted s =
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if !i + 1 < String.length s && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let () =
  let build = if Array.length Sys.argv > 1 then Sys.argv.(1) else "_build/default" in
  let read ext =
    List.concat_map (fun d -> files ext (Filename.concat build d)) dirs
    |> List.filter_map (fun f ->
           match Cmt_format.read_cmt f with
           | info -> Some (f, info)
           | exception _ -> None)
  in
  let cmtis = read ".cmti" and cmts = read ".cmt" in
  let units = Hashtbl.create 256 in
  List.iter (fun (_, (i : Cmt_format.cmt_infos)) -> Hashtbl.replace units i.cmt_modname ())
    (cmtis @ cmts);
  let lib = Filename.concat build "lib" ^ Filename.dir_sep in
  let exports =
    List.concat_map
      (fun (f, (i : Cmt_format.cmt_infos)) ->
         match i.cmt_annots with
         | Cmt_format.Interface s when String.starts_with ~prefix:lib f ->
           sig_exports [ i.cmt_modname ] s
         | _ -> [])
      cmtis
  in
  let uses = Hashtbl.create 4096 and prefix_uses = ref [] in
  List.iter
    (fun (_, (i : Cmt_format.cmt_infos)) ->
       match i.cmt_annots with
       | Cmt_format.Implementation str ->
         scan_uses ~units ~self:i.cmt_modname ~uses ~prefix_uses str
       | _ -> ())
    cmts;
  let used c =
    let k = String.concat "." c in
    Hashtbl.mem uses k
    || List.exists (fun p -> String.starts_with ~prefix:(p ^ ".") k) !prefix_uses
  in
  let unused = List.filter (fun (c, _) -> not (used c)) exports in
  List.iter
    (fun (c, (loc : Location.t)) ->
       Printf.printf "%s:%d: %s has no caller\n" loc.loc_start.pos_fname
         loc.loc_start.pos_lnum (dotted (String.concat "." c)))
    (List.sort compare unused);
  if unused <> [] then exit 1
