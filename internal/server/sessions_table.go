package server

import (
	"sort"
	"time"

	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
)

// fillSessions serves system.sessions from the server's connection
// registry: one row per live session with its transport identity and
// cumulative counters. current_query_id joins to
// system.active_queries.query_id (and, post-mortem, to system.queries), so
// "who is running what" is one SQL join away.
var sessionsSchema = types.NewSchema(
	types.Column{Name: "session_id", Type: types.Int64},
	types.Column{Name: "remote_addr", Type: types.String},
	types.Column{Name: "state", Type: types.String}, // idle, active
	types.Column{Name: "connected_ts", Type: types.Int64},
	types.Column{Name: "statements", Type: types.Int64},
	types.Column{Name: "bytes_out", Type: types.Int64},
	types.Column{Name: "current_query_id", Type: types.Int64},
)

func (s *Server) fillSessions(b *storage.BatchBuilder) error {
	s.sessMu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.sessMu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })

	for _, sess := range sessions {
		state := "idle"
		if sess.active.Load() {
			state = "active"
		}
		b.Append(
			types.Int64Datum(int64(sess.id)),
			types.StringDatum(sess.remote),
			types.StringDatum(state),
			types.Int64Datum(sess.connected.UnixNano()),
			types.Int64Datum(sess.stmts.Load()),
			types.Int64Datum(sess.out.n.Load()),
			types.Int64Datum(int64(sess.curQID.Load())),
		)
	}
	return nil
}

// attachSession registers a new connection's session.
func (s *Server) attachSession(remote string, out *countingWriter) *session {
	sess := &session{
		id:        s.sessSeq.Add(1),
		remote:    remote,
		connected: time.Now(),
		out:       out,
	}
	s.sessMu.Lock()
	s.sessions[sess.id] = sess
	s.sessMu.Unlock()
	return sess
}

// detachSession removes a session when its connection ends.
func (s *Server) detachSession(sess *session) {
	s.sessMu.Lock()
	delete(s.sessions, sess.id)
	s.sessMu.Unlock()
}
