(** Persistent content-addressed verdict store.

    A crash-safe on-disk map from structural cone signatures (see
    {!Aig.cone_signature}) to combinational verdicts, shared across runs
    and across processes.  Because keys are purely structural and
    counterexamples are stored over {e canonical input positions}
    (first-visit DFS order), a verdict proven in one run transfers to a
    structurally identical cone pair in any later run — the same cone at
    another unrolling depth, under renamed signals, or in a differently
    named circuit.

    {b Format.}  One directory holds an append-only binary log
    ([verdicts.bin]: an 8-byte versioned magic header followed by
    length-prefixed, CRC32-guarded records) and an advisory lock file
    ([lock]).  New verdicts are appended write-through; compaction
    rewrites the log through a temporary file and an atomic rename, so a
    crash at any instant leaves either the old or the new file, never a
    torn one.

    {b Sharing.}  One {!t} may be used from many domains (operations are
    mutex-guarded), and many processes may share one directory: every
    file access happens under an advisory [lockf] lock on the side lock
    file, and appends go through [O_APPEND].  Reads are served from the
    in-memory index loaded at {!open_} — verdicts appended by another
    process after that point become visible on the next open or
    {!compact} (which re-reads and merges the log before rewriting it).

    {b Capacity.}  The store holds at most [capacity] verdicts.  Growing
    past the bound triggers a compaction that evicts the
    least-recently-hit entries down to 3/4 of capacity; last-hit order is
    persisted at compaction time, so recency survives across runs
    (approximately: hits between compactions are only in memory).

    {b Corruption.}  A log that fails validation — bad magic, torn or
    bit-flipped record — is never fatal: the valid prefix is salvaged,
    the damaged file is renamed aside (quarantined), and a fresh log is
    written from the salvaged entries.  {!info} reports the quarantine
    path so callers can log it. *)

type t

type verdict =
  | Equivalent
  | Inequivalent of (int * bool) list
      (** counterexample over canonical cone-input positions, exactly the
          payload the {!Cec} cache stores; [Undecided] verdicts are never
          persisted *)

type info = {
  entries : int;  (** verdicts in the in-memory index *)
  capacity : int;
  file_bytes : int;  (** current size of [verdicts.bin] *)
  hits : int;  (** successful {!find}s since open *)
  misses : int;
  writes : int;  (** records appended since open *)
  evictions : int;  (** entries dropped by capacity compactions since open *)
  compactions : int;  (** compaction passes since open (manual + automatic) *)
  quarantined_to : string option;
      (** set when {!open_} found a corrupt log and renamed it aside *)
  kinds : (string * int) list;
      (** entry counts per record {e kind} (sorted by kind name) — e.g.
          [("flat", _)] for combinational cone verdicts, [("hier", _)]
          for per-module hierarchical verdicts *)
}

val default_dir : string
(** [".seqver-cache"] — the conventional per-repo cache directory (the
    CLI's [--cache-dir] default for the [cache] subcommand). *)

val file_name : string
(** ["verdicts.bin"], the log file inside the store directory. *)

val open_ : ?capacity:int -> string -> t
(** [open_ dir] opens (creating the directory and an empty log if needed)
    and loads the verdict store in [dir].  Corrupt logs are quarantined,
    never raised on — see {!info}.
    @raise Unix.Unix_error when the directory cannot be created or the
    log cannot be opened at all (permissions, not corruption). *)

val close : t -> unit
(** Flushes and closes the log and lock file descriptors.  Verdicts are
    durable as soon as {!add} returns; [close] is hygiene, not a commit
    point.  Idempotent: closing twice (or from two domains at once) is a
    no-op after the first, and an operation racing [close] either
    completes first or raises [Invalid_argument] — it never touches a
    closed descriptor, and the advisory cross-process lock is never
    released by closing its fd mid-critical-section.  Further operations
    on a closed store raise [Invalid_argument]; a failed final flush
    propagates (data loss is not silent). *)

val find : t -> string -> verdict option
(** In-memory index lookup; a hit refreshes the entry's recency. *)

val mem : t -> string -> bool

val add : ?kind:string -> t -> string -> verdict -> bool
(** [add t key v] appends the record write-through and returns [true], or
    returns [false] without touching the file when [key] is already
    present (first verdict wins — verdicts for one signature are unique,
    so a duplicate is always benign).  May trigger an automatic
    capacity compaction.

    [kind] (default ["flat"], at most 255 bytes) tags the record's schema
    class so mixed caches stay attributable ({!info}[.kinds]) and
    readable across versions: ["flat"] records use the original framing
    (byte-identical to pre-kind logs), any other kind is written with a
    newer record tag that {e pre-kind readers quarantine} — a safe cold
    start, never a misread. *)

val compact : t -> unit
(** Re-reads the log (merging records appended by other processes),
    evicts least-recently-hit entries if over capacity, and atomically
    rewrites the log with persisted recency. *)

val clear : t -> unit
(** Drops every entry and truncates the log to a fresh header. *)

val info : t -> info
val pp_info : Format.formatter -> info -> unit

(**/**)

val crc32 : string -> int
(** Exposed for tests: IEEE CRC-32 of a string, as a non-negative int. *)
