// The wire protocol: line-protocol verbs over length-prefixed frames.
//
// A request frame carries one command line, or several newline-separated
// lines forming a **batch** that executes in order and answers as one
// response frame — a client gets `open; run; wait; drain; close` for a
// single round-trip instead of five.  Within a batch, `$` names the id
// returned by the batch's own `open`, so a client can script a whole
// session lifecycle without knowing the id in advance.  The adjacent pair
// `open ...` + `run $ <ms>` is executed as SessionServer::open_and_run —
// one scheduler submission covers admission, build and the first run.
//
// A batch may also *describe a network*: the lines between `net` and `end`
// define populations and projections (the full grammar is in
// docs/SERVER.md), answer as one response block, and bind the parsed
// description to `@` — `open app=@ ...` then opens a session running the
// client's own net through the same place/route/load pipeline as a
// built-in app.  Parsing is incremental (one NetParser owned by the
// Request, fed a line at a time) and strictly validated; any error names
// the offending line and token, skips the rest of the block, and leaves
// `@` unbound.  In a batch, every error response is prefixed `err @<n>`
// with the 1-based line number of the command that failed, so a client
// can map a rejection back to the verb that caused it.
//
// Execution is *resumable*: `wait` on a session that still owes work parks
// the request (waiting_on() says which session) instead of blocking, and
// the transport resumes advance() once the session idles — that is what
// lets a single reactor thread multiplex hundreds of pipelined
// connections.  Responses are machine-first: integer nanoseconds and
// decimal keys, so a drained spike stream is bit-exact (`tests/
// net_test.cpp` holds socket streams to the same standard as embedded
// runs).  docs/SERVER.md documents every verb and response shape.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "server/server.hpp"

namespace spinn::net {

/// Incremental parser for the `net ... end` block grammar (reference:
/// docs/SERVER.md).  Feed every line after the opening `net`; returns More
/// while the block is open, Done once `end` arrived and the description
/// validated (take() then yields it), Error with the offending token named
/// in error().  Populations must be declared before a projection
/// references them — which the canonical encoding always satisfies — so
/// reference errors surface on the offending `proj` line, not at `end`.
class NetParser {
 public:
  enum class Status { More, Done, Error };

  Status feed(const std::string& line);
  const std::string& error() const { return error_; }

  /// The validated description; call once, after Done.
  std::shared_ptr<const neural::NetworkDescription> take();

  /// The name map resolved incrementally while parsing — every element was
  /// validated against it per line, so the description take() returns is
  /// fully validated and the map certifies it (thread it into
  /// SessionSpec::net_names so admission and build skip re-resolution).
  /// Call once, after Done (and after take(): indices are positional).
  std::shared_ptr<const neural::NameMap> take_names();

 private:
  Status fail(const std::string& why);
  Status parse_pop(const std::vector<std::string>& tokens);
  Status parse_proj(const std::vector<std::string>& tokens);

  neural::NetworkDescription desc_;
  neural::NameMap names_;
  std::string error_;
};

/// Canonical wire encoding of a description: the whole block — `net`, one
/// `pop`/`proj` line per element, `end`.  Lossless: doubles are emitted as
/// shortest round-trip decimals and defaults are omitted, so
/// encode(parse(encode(d))) == encode(d) byte-for-byte (the fuzz suite
/// pins this).
std::vector<std::string> encode_net(const neural::NetworkDescription& desc);

/// One request frame being executed against a SessionServer.
class Request {
 public:
  Request(server::SessionServer& srv, const std::string& frame);

  /// Execute command lines until the response is complete (true) or a
  /// `wait` parks on a busy session (false; see waiting_on()).  Call again
  /// after the session idles — or whenever, re-parking is harmless.
  bool advance();

  bool done() const { return done_; }

  /// While parked: the session whose idleness unblocks the request.
  server::SessionId waiting_on() const { return waiting_; }

  /// Complete response payload; valid once done().  One response block per
  /// command line, joined by newlines (a drain block spans 1+n lines and
  /// announces n on its first line, so the boundary stays parseable).
  const std::string& response() const { return response_; }

  /// Number of command lines in the frame (> 1 means batch).
  std::size_t commands() const { return lines_.size(); }

  /// Fault actions this request put onto session schedules (the reactor
  /// folds it into NetStats::faults).
  std::size_t faults_scheduled() const { return faults_scheduled_; }

 private:
  void respond(const std::string& block);
  /// Error response for the line at `line`: `err <reason>`, prefixed with
  /// `@<1-based line>` in a batch so rejections are mappable.
  void fail_at(std::size_t line, const std::string& reason);
  void fail(const std::string& reason) { fail_at(next_line_, reason); }
  void exec_open(const std::vector<std::string>& tokens);
  /// `fault <id|$> ...` with the id already resolved by the dispatch.
  void exec_fault(server::SessionId id,
                  const std::vector<std::string>& tokens);
  /// One line of an open `net` block; consumes the line.
  void exec_net_line(const std::string& line);
  bool resolve_id(const std::string& token, server::SessionId* id) const;

  server::SessionServer& srv_;
  std::vector<std::string> lines_;
  std::size_t next_line_ = 0;
  server::SessionId batch_id_ = server::kInvalidSession;  // the `$` binding
  server::SessionId waiting_ = server::kInvalidSession;
  std::string response_;
  bool done_ = false;
  std::size_t faults_scheduled_ = 0;
  // `net` block state: the in-flight parser, the line the block opened at
  // (for truncation errors), whether the block already failed (remaining
  // lines are skipped to `end` without responses), and the `@` binding.
  std::unique_ptr<NetParser> net_parser_;
  std::size_t net_line_ = 0;
  bool net_failed_ = false;
  std::shared_ptr<const neural::NetworkDescription> batch_net_;
  /// Name map certifying batch_net_'s validation (see NetParser).
  std::shared_ptr<const neural::NameMap> batch_names_;
};

/// Render a drained spike stream as a response block: `spikes <n>` then one
/// `s <time_ns> <key>` line per event (exact integers — the determinism
/// contract crosses the wire intact).
std::string format_spikes(
    const std::vector<neural::SpikeRecorder::Event>& events);

/// Parse a `spikes <n>` block back into events.  False on malformed input.
bool parse_spikes(const std::string& block,
                  std::vector<neural::SpikeRecorder::Event>* events);

/// Parse `ok id=<id>`.  False (id untouched) for any other response.
bool parse_open_id(const std::string& response, server::SessionId* id);

/// The transport's own verbs, which the reactor answers itself.
enum class TransportVerb { kNone, kNetstats, kMetrics, kTrace };

/// Classify a request frame by the rule Request applies to every verb:
/// trailing empty lines (and one CR per line) are trimmed, and tokens split
/// on spaces and tabs.  A transport verb is a frame of one command line —
/// `netstats` or `metrics` alone, or `trace ...` — and `*line` receives
/// that line.  Anything else (a batch, an argument to netstats) is kNone
/// and executes as a Request.  A frame whose first word is not a transport
/// verb is classified without tokenizing or allocating.
TransportVerb transport_verb(const std::string& frame, std::string* line);

/// Render the `netstats` verb's response line: the `net.*` rows of
/// `metrics`, in the same order, as `net k=v ...`.
std::string format_netstats(const NetStats& stats);

/// Render the `metrics` verb's response: `metrics <n>` then n `name value`
/// lines.  The transport/server derived fields come first in pinned order
/// (`net.*` from NetStats, `server.*` from ServerStats — the same
/// append-only stability contract as `netstats`), followed by the
/// process-wide obs::Registry rows sorted by name (histograms expand to
/// `.count/.p50/.p95/.p99`).  docs/OBSERVABILITY.md holds the transcript.
std::string format_metrics(const NetStats& net, const server::ServerStats& srv);

/// Execute a `trace start|stop|dump` command line against the process-wide
/// obs::Tracer and return the response block: `ok trace on|off`, a Chrome
/// trace_event JSON document (`dump`), or an `err ...` line (unknown
/// subcommand, or `allow_trace` false — NetConfig gates the verb).
std::string handle_trace(const std::string& line, bool allow_trace);

}  // namespace spinn::net
