package server

import "xbench/internal/wire"

// ConnPipeline is the per-connection worker cap, for the test that fills
// it.
const ConnPipeline = connPipeline

// JournalHold is the longest a pull at the durable end parks, for the
// tests that wake one sooner.
const JournalHold = journalHold

// Handle serves one request as a connection's worker does and gives its
// admission slot back, for the tests that count what a request costs.
func (s *Server) Handle(op wire.Op, payload []byte) wire.Frame {
	var scratch []byte
	f, done := s.handle(op, payload, &scratch)
	done()
	return f
}
