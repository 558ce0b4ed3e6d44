(** Compact binary wire codec for {!Message.t}.

    A length-prefixed binary framing with an interned-label,
    offset-indexed encoding for shipped forests (see DESIGN.md §16):

    {v
    frame  := uvarint(body_len) body
    body   := magic version zv(corr) zv(seq) zv(op) kind payload
    forest := uvarint(ntrees) { uvarint(blob_len) tree_blob }*
    blob   := string table (labels, attr names, id namespaces) + nodes
    batch  := zv(ack) uvarint(nitems) { 0x00 uvarint(item_len) item }*
    item   := zv(corr) zv(seq) zv(op) kind payload
    v}

    Every batch item carries its whole message, forests and node ids
    included; an item tag other than [0x00] is malformed.

    Two properties the rest of the stack builds on:

    - {b Exact sizing without encoding.}  {!frame_bytes} computes the
      encoded length arithmetically from cached per-tree blob lengths;
      a qcheck property pins it to [Bytes.length (encode m)].
    - {b A validating eager round trip.}  {!decode} rebuilds every
      carried forest as a plain {!Axml_xml.Forest.t} and checks each
      length prefix against what it covers: a frame, batch item or
      tree blob with trailing bytes is rejected. *)

type error = Truncated | Malformed of string

val pp_error : Format.formatter -> error -> unit

val frame_bytes : Message.t -> int
(** Exact length of [encode m], computed without materializing the
    frame.  The binary-wire byte charge ({!System.wire}). *)

val serve_copy :
  gen:Axml_xml.Node_id.Gen.t -> Axml_xml.Tree.t -> Axml_xml.Tree.t * int
(** [serve_copy ~gen t] is [(Axml_xml.Tree.copy ~gen t,
    Axml_xml.Tree.byte_size t)] from one walk: the copy draws the same
    fresh ids as [Tree.copy], in the same post-order.  The walk also
    sizes the copy's tree blob and records that length in the per-tree
    length cache {!frame_bytes} reads, so a frame carrying the copy is
    priced without walking it again.  A document read serves through
    this. *)

val encode : Message.t -> Bytes.t

val decode : Bytes.t -> (Message.t, error) result
(** Decodes the whole frame, forests included.  Rejects truncated,
    over-length and malformed frames — a tree blob must end exactly at
    its declared length — with [Error], never an exception. *)

val roundtrip : Message.t -> Message.t
(** [decode (encode m)].  The strict wire mode routes every send
    through this so the whole stack exercises the codec.
    @raise Invalid_argument if decoding fails (encode/decode mismatch
    — a codec bug, not an input condition). *)
