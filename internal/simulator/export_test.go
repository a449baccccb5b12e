package simulator

// BlockLen exports the scan window length to the external tests, which
// count fills per window.
const BlockLen = blockLen
