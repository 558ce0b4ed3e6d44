type t = Tree.t list

let empty = []
let size f = List.fold_left (fun acc t -> acc + Tree.size t) 0 f
let byte_size f = List.fold_left (fun acc t -> acc + Tree.byte_size t) 0 f
let copy ~gen f = List.map (Tree.copy ~gen) f
let concat_map = List.concat_map
let elements f = List.concat_map Tree.elements f

let pp fmt f =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ")
    Tree.pp fmt f
