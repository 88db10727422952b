package server

// ConnPipeline is the per-connection worker cap, for the test that fills
// it.
const ConnPipeline = connPipeline

// JournalHold is the longest a pull at the durable end parks, for the
// tests that wake one sooner.
const JournalHold = journalHold
