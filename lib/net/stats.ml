type snapshot = {
  messages : int;
  payload_messages : int;
  bytes : int;
  local_messages : int;
  drops : int;
  completion_ms : float;
  per_link : ((Peer_id.t * Peer_id.t) * (int * int)) list;
}

(* One mutable cell per directed link, keyed by the packed pair of
   dense peer indexes: recording a send is an int-keyed table probe
   and two in-place increments — no tuple key allocation, no generic
   hashing of peer names (that cost dominated record_send at 10^6
   messages). *)
type link_cell = {
  lsrc : Peer_id.t;
  ldst : Peer_id.t;
  mutable lmsgs : int;
  mutable lbytes : int;
}

type t = {
  mutable messages : int;
  mutable payload_messages : int;
  mutable bytes : int;
  mutable local_messages : int;
  mutable completion_ms : float;
  per_link : (int, link_cell) Hashtbl.t;
  drops : int Peer_id.Table.t;  (* fault paths only: rare *)
}

let pack src dst = (Peer_id.index src lsl 31) lor Peer_id.index dst

let create () =
  {
    messages = 0;
    payload_messages = 0;
    bytes = 0;
    local_messages = 0;
    completion_ms = 0.0;
    per_link = Hashtbl.create 16;
    drops = Peer_id.Table.create 8;
  }

let record_send ?(msgs = 1) t ~src ~dst ~bytes =
  if Peer_id.equal src dst then t.local_messages <- t.local_messages + 1
  else begin
    t.messages <- t.messages + 1;
    t.payload_messages <- t.payload_messages + msgs;
    t.bytes <- t.bytes + bytes;
    let key = pack src dst in
    match Hashtbl.find t.per_link key with
    | cell ->
        cell.lmsgs <- cell.lmsgs + 1;
        cell.lbytes <- cell.lbytes + bytes
    | exception Not_found ->
        Hashtbl.add t.per_link key
          { lsrc = src; ldst = dst; lmsgs = 1; lbytes = bytes }
  end

let record_drop t ~peer =
  let n = Option.value ~default:0 (Peer_id.Table.find_opt t.drops peer) in
  Peer_id.Table.replace t.drops peer (n + 1)

let drops_by_peer t =
  Peer_id.Table.fold (fun p n acc -> (p, n) :: acc) t.drops []
  |> List.sort (fun (a, _) (b, _) -> Peer_id.compare a b)

let record_time t time = if time > t.completion_ms then t.completion_ms <- time

let snapshot t : snapshot =
  {
    messages = t.messages;
    payload_messages = t.payload_messages;
    bytes = t.bytes;
    local_messages = t.local_messages;
    drops = Peer_id.Table.fold (fun _ n acc -> acc + n) t.drops 0;
    completion_ms = t.completion_ms;
    per_link =
      Hashtbl.fold
        (fun _ c acc -> ((c.lsrc, c.ldst), (c.lmsgs, c.lbytes)) :: acc)
        t.per_link []
      |> List.sort compare;
  }

let reset t =
  t.messages <- 0;
  t.payload_messages <- 0;
  t.bytes <- 0;
  t.local_messages <- 0;
  t.completion_ms <- 0.0;
  Hashtbl.reset t.per_link;
  Peer_id.Table.reset t.drops

let pp_snapshot fmt (s : snapshot) =
  Format.fprintf fmt
    "@[<v>messages: %d (+%d local)@ bytes: %d@ drops: %d@ completion: %.2f ms@ "
    s.messages s.local_messages s.bytes s.drops s.completion_ms;
  if s.payload_messages <> s.messages then
    Format.fprintf fmt "payload messages: %d@ " s.payload_messages;
  List.iter
    (fun ((src, dst), (m, b)) ->
      Format.fprintf fmt "%a -> %a: %d msg, %d B@ " Peer_id.pp src Peer_id.pp
        dst m b)
    s.per_link;
  Format.fprintf fmt "@]"
