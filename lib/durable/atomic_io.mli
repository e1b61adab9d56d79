(** Atomic, checksummed file persistence.

    Every artifact the project archives (campaign CSVs, stream
    manifests, bench JSON) is written through this module: content goes to a
    same-directory temp file, is fsynced, and is renamed over the
    destination, so readers only ever see a complete old file or a
    complete new file. The written file is framed by a header line
    ([#tlsharm-durable v1]) and a footer line carrying the content byte
    count plus a truncated SHA-256 tag per 64 KiB block, which lets
    {!read} detect truncation and name the byte offset of corruption. *)

type error =
  | Io of string  (** the underlying syscall failed (missing file, EACCES, …) *)
  | Not_durable  (** no durable header: a legacy/foreign file *)
  | Missing_footer of { actual_bytes : int }
      (** durable header present but no checksum footer — the file was
          truncated at or after [actual_bytes] content bytes *)
  | Truncated of { expected_bytes : int; actual_bytes : int }
      (** footer present but declares more content than the file holds *)
  | Corrupt of { offset : int }
      (** a checksum mismatch; [offset] is the content byte offset of the
          first damaged block *)

val error_to_string : ?what:string -> error -> string
(** One-line rendering suitable for CLI error messages; [what] names the
    file (defaults to ["file"]). *)

val write : ?sync:bool -> string -> string -> unit
(** [write path content] atomically replaces [path] with a durable frame
    around [content]. On any failure the temp file is removed and the
    original [path] is untouched. With [~sync:false] (default [true])
    neither the file nor the rename is fsynced: for a file deleted with
    the run that wrote it. *)

type writer
(** Incremental writer for large artifacts; obtained via {!with_writer}. *)

val add : writer -> string -> unit

val with_writer : string -> (writer -> unit) -> unit
(** [with_writer path f] streams the content produced by [f] through the
    same atomic + checksummed discipline as {!write} without holding the
    whole artifact in memory twice. *)

val read : string -> (string, error) result
(** Read and verify a durable file, returning its content with the frame
    stripped. Never raises on bad input; all failure modes are in
    {!type:error}. *)

val block_size : int
(** Content bytes covered by each checksum tag (64 KiB). *)

val block_tag : string -> string
(** The integrity tag of one block: the first 16 hex characters (64
    bits) of its SHA-256. {!Spool} frames reuse it per spool block. *)
