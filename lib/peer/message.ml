module Peer_id = Axml_net.Peer_id
module Names = Axml_doc.Names
module Forest = Axml_xml.Forest

type reply_dest =
  | Cont of { peer : Peer_id.t; key : int }
  | Node of Names.Node_ref.t
  | Install of { peer : Peer_id.t; name : string }

type payload =
  | Stream of { key : int; forest : Forest.t; final : bool }
  | Eval_request of {
      expr : Axml_algebra.Expr.t;
      replies : reply_dest list;
      ack : (Peer_id.t * int) option;
    }
  | Invoke of {
      service : Names.Service_name.t;
      params : Forest.t list;
      replies : reply_dest list;
    }
  | Insert of {
      node : Axml_xml.Node_id.t;
      forest : Forest.t;
      notify : (Peer_id.t * int) option;
    }
  | Install_doc of {
      name : string;
      forest : Forest.t;
      notify : (Peer_id.t * int) option;
    }
  | Migrate_doc of {
      name : string;
      forest : Forest.t;
      notify : (Peer_id.t * int) option;
    }
      (** Placement handoff: install-or-replace a replica of [name] at
          the destination, {e preserving} the shipped node ids (the
          codec carries them), so queries resolve the same ids on every
          replica. *)
  | Retract_doc of { name : string; notify : (Peer_id.t * int) option }
      (** Placement cleanup: drop the replica of [name] at the
          destination (idempotent). *)
  | Deploy of {
      prefix : string;
      query : Axml_query.Ast.t;
      reply : reply_dest;
    }
  | Query_shipped of { key : int; query : Axml_query.Ast.t }
  | Ack of { seq : int }
  | Batch of { items : t list; ack : int }

and t = { payload : payload; corr : int; seq : int; op : int }

let make ?(corr = 0) ?(seq = 0) ?(op = -1) payload = { payload; corr; seq; op }

let envelope = 64
(* Headers, addressing, framing.  The correlation id and the
   profiler's plan-operator id travel inside this budget — they do
   not change the charged size, so traced, profiled and plain runs
   ship identical byte counts. *)

let item_header = 16
(* Per-item framing inside a batch: sequence number, payload kind and
   length prefix — much smaller than a full envelope, which is where
   batching's fixed-cost saving comes from. *)

let rec bytes = function
  | Stream { forest; _ } -> envelope + Forest.byte_size forest
  | Eval_request { expr; _ } -> envelope + Axml_algebra.Expr_xml.byte_size expr
  | Invoke { params; _ } ->
      envelope
      + List.fold_left (fun acc f -> acc + Forest.byte_size f) 0 params
  | Insert { forest; _ } | Install_doc { forest; _ } | Migrate_doc { forest; _ }
    ->
      envelope + Forest.byte_size forest
  | Retract_doc _ -> envelope
  | Deploy { query; _ } | Query_shipped { query; _ } ->
      envelope + String.length (Axml_query.Ast.to_string query)
  | Ack _ -> envelope
  | Batch { items; _ } ->
      List.fold_left
        (fun acc m -> acc + item_header + (bytes m.payload - envelope))
        envelope items

let batch ~ack items = Batch { items; ack }

let batch_size = function
  | Batch { items; _ } -> List.length items
  | _ -> 1

let reply_peer = function
  | Cont { peer; _ } -> peer
  | Node r -> r.Names.Node_ref.peer
  | Install { peer; _ } -> peer

let tag = function
  | Stream _ -> "stream"
  | Eval_request _ -> "eval-request"
  | Invoke _ -> "invoke"
  | Insert _ -> "insert"
  | Install_doc _ -> "install-doc"
  | Migrate_doc _ -> "migrate-doc"
  | Retract_doc _ -> "retract-doc"
  | Deploy _ -> "deploy"
  | Query_shipped _ -> "query-shipped"
  | Ack _ -> "ack"
  | Batch _ -> "batch"

let pp_forest_bytes fmt f = Format.fprintf fmt "%dB" (Forest.byte_size f)

let rec pp fmt = function
  | Stream { key; forest; final } ->
      Format.fprintf fmt "stream[%d] %a%s" key pp_forest_bytes forest
        (if final then " (final)" else "")
  | Eval_request { expr; _ } ->
      Format.fprintf fmt "eval-request %a" Axml_algebra.Expr.pp expr
  | Invoke { service; params; _ } ->
      Format.fprintf fmt "invoke %a/%d" Names.Service_name.pp service
        (List.length params)
  | Insert { node; forest; _ } ->
      Format.fprintf fmt "insert %a under %a" pp_forest_bytes forest
        Axml_xml.Node_id.pp node
  | Install_doc { name; forest; _ } ->
      Format.fprintf fmt "install %s (%a)" name pp_forest_bytes forest
  | Migrate_doc { name; forest; _ } ->
      Format.fprintf fmt "migrate %s (%a)" name pp_forest_bytes forest
  | Retract_doc { name; _ } -> Format.fprintf fmt "retract %s" name
  | Deploy { prefix; _ } -> Format.fprintf fmt "deploy %s_*" prefix
  | Query_shipped { key; _ } -> Format.fprintf fmt "query-shipped[%d]" key
  | Ack { seq } -> Format.fprintf fmt "ack[%d]" seq
  | Batch { items; ack } as b ->
      Format.fprintf fmt "batch(%d item%s, ack %d, %dB): " (List.length items)
        (if List.length items = 1 then "" else "s")
        ack (bytes b);
      Format.pp_print_list
        ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ")
        (fun fmt m -> Format.fprintf fmt "#%d %a" m.seq pp m.payload)
        fmt items
