package program

// CheckCalleeCandidates lets the external tests run the reference-scan
// comparison over the workload profiles, which this package cannot
// import.
var CheckCalleeCandidates = checkCalleeCandidates
