type prov = Root of int | Mutant of { parent : int; op : string }

type node = {
  id : int;
  prov : prov;
  cls_tags : string list;
}

type t = { by_id : (int, node) Hashtbl.t; ids : int list }

(* the provenance field of a fuzz journal note: "p=g<seed>" for a fresh
   kernel, "p=m<parent>:<op>" for a mutant of kernel <parent> *)
let prov_of_note note =
  let field =
    List.find_map
      (fun part ->
        if String.length part > 2 && String.sub part 0 2 = "p=" then
          Some (String.sub part 2 (String.length part - 2))
        else None)
      (String.split_on_char ';' note)
  in
  match field with
  | None -> None
  | Some p when String.length p >= 2 && p.[0] = 'g' ->
      Option.map (fun s -> Root s)
        (int_of_string_opt (String.sub p 1 (String.length p - 1)))
  | Some p when String.length p >= 2 && p.[0] = 'm' -> (
      let body = String.sub p 1 (String.length p - 1) in
      match String.index_opt body ':' with
      | Some i -> (
          let op = String.sub body (i + 1) (String.length body - i - 1) in
          match int_of_string_opt (String.sub body 0 i) with
          | Some parent when op <> "" -> Some (Mutant { parent; op })
          | _ -> None)
      | None -> None)
  | Some _ -> None

let outcome_tag (c : Journal.cell) =
  match c.Journal.outcomes with
  | [ o ] -> Some (Outcome.short_tag o)
  | _ -> None

let of_cells cells =
  let fuzz = List.filter (fun c -> c.Journal.mode = "fuzz") cells in
  if fuzz = [] then Error "no fuzz cells (lineage needs a fuzz journal)"
  else
    let by_id = Hashtbl.create 64 in
    let rev_ids = ref [] in
    let err = ref None in
    let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
    List.iter
      (fun (c : Journal.cell) ->
        let id = c.Journal.seed in
        match prov_of_note c.Journal.note with
        | None -> fail "kernel %d: unparsable provenance note %S" id c.Journal.note
        | Some prov -> (
            let tag = outcome_tag c in
            match Hashtbl.find_opt by_id id with
            | None ->
                rev_ids := id :: !rev_ids;
                Hashtbl.replace by_id id
                  { id; prov; cls_tags = Option.to_list tag }
            | Some n ->
                if n.prov <> prov then
                  fail "kernel %d: inconsistent provenance across its cells" id
                else
                  let cls_tags =
                    match tag with
                    | Some t when not (List.mem t n.cls_tags) -> n.cls_tags @ [ t ]
                    | _ -> n.cls_tags
                  in
                  Hashtbl.replace by_id id { n with cls_tags }))
      fuzz;
    (* parents must be earlier kernels that exist — which also makes the
       DAG acyclic by construction (every edge strictly decreases id) *)
    Hashtbl.iter
      (fun id n ->
        match n.prov with
        | Root _ -> ()
        | Mutant { parent; _ } ->
            if parent >= id then
              fail "kernel %d: parent %d is not an earlier kernel" id parent
            else if not (Hashtbl.mem by_id parent) then
              fail "kernel %d: parent %d is not in the journal" id parent)
      by_id;
    match !err with
    | Some m -> Error m
    | None -> Ok { by_id; ids = List.rev !rev_ids }

let size t = List.length t.ids
let ids t = t.ids
let node t id = Hashtbl.find_opt t.by_id id

let parent t id =
  match node t id with
  | Some { prov = Mutant { parent; _ }; _ } -> Some parent
  | _ -> None

(* root-first ancestry: [(kernel id, operator that produced it)];
   the root's operator is None. Total because parents strictly
   decrease and were checked to exist. *)
let path_to_root t id =
  let rec up id acc =
    match node t id with
    | None -> acc
    | Some { prov = Root _; _ } -> (id, None) :: acc
    | Some { prov = Mutant { parent; op }; _ } -> up parent ((id, Some op) :: acc)
  in
  up id []

let depth t id = List.length (path_to_root t id) - 1

let root_seed t id =
  match path_to_root t id with
  | (root, None) :: _ -> (
      match node t root with
      | Some { prov = Root s; _ } -> Some s
      | _ -> None)
  | _ -> None

let operator_counts t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun id ->
      match node t id with
      | Some { prov = Mutant { op; _ }; _ } ->
          Hashtbl.replace tbl op (1 + Option.value ~default:0 (Hashtbl.find_opt tbl op))
      | _ -> ())
    t.ids;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

type discovery = {
  d_cls : string;
  d_config : int;
  d_opt : string;
  d_signature : string;
  d_kernel : int;
  d_path : (int * string option) list;
}

let discovery_paths t hits =
  (* first hit per bucket key, in hit order — the exemplar the triage
     table reports — then its ancestry *)
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (cls, config, opt, signature, kernel) ->
      let key = (cls, config, opt, signature) in
      if Hashtbl.mem seen key || not (Hashtbl.mem t.by_id kernel) then None
      else begin
        Hashtbl.replace seen key ();
        Some
          {
            d_cls = cls;
            d_config = config;
            d_opt = opt;
            d_signature = signature;
            d_kernel = kernel;
            d_path = path_to_root t kernel;
          }
      end)
    hits
