package sweep

// SimulateEach exposes the oracle to the external test package.
var SimulateEach = simulateEach
