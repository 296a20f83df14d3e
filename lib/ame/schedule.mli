(** Deterministic channel assignment for one f-AME message-transmission
    round (Section 5.4).

    Given the game proposal P (item i goes on channel i), the builder
    assigns: a broadcaster per channel (the node itself for node items; the
    source, or one of its recorded surrogates when the source is otherwise
    busy, for edge items); the destination of each edge item as the
    channel's receiver; and [watchers_per_channel] uninvolved listeners per
    used channel, the first [witness_size] of whom form the witness set
    W[c] for the following communication-feedback call (a shared prefix of
    the watcher array — no per-channel copy is made).

    The construction is a pure function of its arguments, so all nodes
    compute the identical schedule from identical game state (Invariant 1).

    Alongside the per-channel arrays, {!build} records a flat node->role
    table in its scratch in the same claiming passes (O(n + k*w) total), so
    {!role_of} and {!witness_channel} are O(1) lookups instead of
    O(k*watchers) scans per node per move.  The table is generation-stamped:
    it stays valid until a later build reuses the same scratch, after which
    the lookups raise [Invalid_argument].  A stale lookup is a caller bug:
    query right after the build, or rebuild.  The linear-scan reference the
    index is tested against lives in the test-only [test/oracle] library. *)

exception Divergence of string
(** Raised when no legal assignment exists (e.g. a starred source has no
    free surrogate).  Under the paper's parameter assumptions this can only
    happen after a low-probability feedback failure has desynchronized the
    nodes' game states; runners treat it as a whp-failure event. *)

type scratch
(** Reusable claimed-node workspace for {!build}: generation-stamped int
    arrays (claim stamps + the packed role table), grown on demand, so
    consecutive builds cost O(proposal) instead of an O(n) allocation +
    clear each.  A build retires every index taken earlier from the same
    scratch, so share one only among builds whose lookups all happen
    before the next build on it.  A schedule queried long after its build,
    like f-AME's per-move schedule that every node in the same game state
    reads, is built without a scratch and owns its table.  No protocol
    code shares one: the callers left are benchsuite's [ame_replay],
    bench/'s [pop_schedule] and the [test_ame] index property, and the
    ROADMAP removes the scratch with the next declared change to those
    benchmarks. *)

val make_scratch : unit -> scratch

type index
(** A schedule's view into its scratch's node->role table; consulted by
    {!role_of} / {!witness_channel} while still generation-current. *)

type t = {
  items : Game.State.item array;  (** index = channel *)
  broadcaster : int array;  (** per used channel *)
  owner : int array;  (** whose vector each channel carries *)
  receiver : int option array;  (** edge destination, per used channel *)
  watchers : int array array;  (** per used channel, sorted ids *)
  witness_size : int;  (** W[c] = first [witness_size] watchers of channel c *)
  index : index;
}

val build :
  ?scratch:scratch ->
  proposal:Game.State.item list ->
  surrogates:(int -> int array) ->
  n:int ->
  witness_size:int ->
  watchers_per_channel:int ->
  unit ->
  t
(** [surrogates v] must list, in deterministic order, the nodes known to
    hold v's message vector (the watchers of the round in which v was
    starred).  [witness_size] is C, the total channel count: each witness
    set W[c] must be able to occupy every channel during feedback, so
    [watchers_per_channel >= witness_size] is required.  Passing [?scratch]
    reuses the claimed-node workspace across builds; the result is
    identical either way. *)

type role =
  | Broadcast of { channel : int; owner : int }
  | Receive of { channel : int; edge : int * int }
  | Watch of { channel : int }
  | Off
      (** not scheduled this round (idles during the message round) *)

val role_of : t -> int -> role
(** O(1) via the inverted index.  Valid between a build and the next build
    on the same scratch; afterwards it raises [Invalid_argument]. *)

val witness_channel : t -> int -> int option
(** The channel this node is a feedback witness for, if any.  O(1), and
    raises [Invalid_argument] on a stale index, like {!role_of}. *)

val oracle_entry : t -> Oracle.entry
(** Iterative (stack-safe at any proposal size). *)
