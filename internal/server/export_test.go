package server

// ConnPipeline is the per-connection worker cap, for the test that fills
// it.
const ConnPipeline = connPipeline
