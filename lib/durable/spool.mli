(** Append-only block log for streaming archives.

    Where {!Atomic_io} rewrites a whole artifact atomically (right for
    end-of-run outputs), a spool appends framed blocks to one open file
    and flushes after each block, so a long campaign can emit one block
    per scan day in O(block) rather than O(file). Every block frame
    carries the payload's {!Atomic_io.block_tag}, so the reader tells a
    complete spool from one torn by a crash or damaged at rest: the
    valid block prefix is returned either way, and a resume re-runs the
    stream, checking it against that prefix before it reopens the spool
    after it ({!create} with [keep]). *)

type writer

val create : ?sync:bool -> ?keep:string list -> string -> writer
(** [create path] truncates [path] and starts a fresh spool. The
    previous content is intentionally discarded: a reader that wants it
    (the resume rule) reads it first, and a re-run re-emits every block,
    so the spool is byte-identical whether or not the run was
    interrupted. With [keep], the blocks {!read} returned as the valid
    prefix of [path] (non-empty), the file is instead cut just after
    them, dropping the torn or unchecked tail, and the writer appends
    block [List.length keep] next. [sync] (default [true]) makes
    {!close} fsync; a spool deleted with its run log is not worth the
    wait. *)

val add_block : writer -> string -> unit
(** Append one framed, tagged block and flush it to the OS. Raises
    [Invalid_argument] after {!close}. *)

val close : writer -> unit
(** Write the end-of-spool footer, fsync (unless created with
    [~sync:false]), and close. Idempotent. A spool
    without its footer reads back as incomplete. *)

type error =
  | Unreadable of string  (** the file could not be read *)
  | Not_a_spool  (** missing or foreign header *)
  | Old_version of int
      (** a spool of an earlier format, by its exact header line: v2
          blocks were drawn from HMAC-DRBG streams, so this build can
          neither reproduce nor compare them *)

val error_to_string : path:string -> error -> string
(** One line naming [path]. *)

val read : string -> (string list * bool, error) result
(** [read path] returns [(blocks, complete)]: the longest valid prefix
    of blocks, and whether the footer followed it with a matching block
    count. A torn tail, a payload that fails its tag and any frame line
    the writer would not have produced all end the prefix and leave the
    spool incomplete; only an unreadable file, a missing or foreign
    header, or an earlier version's header is an [Error]. *)
