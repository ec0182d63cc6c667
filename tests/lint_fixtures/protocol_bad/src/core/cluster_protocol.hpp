// protocol_bad fixture stub: deliberately missing the codec/handler
// identifiers and [MasterState::k*] markers that pgasm-model checks (P5).
