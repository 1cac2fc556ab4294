package experiment

// The unexported halves of NewConvergedWorld and of the Figure 2 and
// scenario matrices, for the world oracle in package experiment_test, which
// also imports ctlplane (itself an importer of this package).
var (
	ConvergedWorld = convergedWorld
	Solvable       = solvable
	FailoverOn     = failoverOn
	ScenarioGroups = scenarioGroups
)
