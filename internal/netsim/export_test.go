package netsim

// WrapAccounting replaces a port's accounting with wrap of it, so a test
// outside the package can watch every port-level event of a port that a
// defense built.
func WrapAccounting(p *Port, wrap func(Accounting) Accounting) { p.acct = wrap(p.acct) }

// IngressStages is the length of a port's ingress pipeline, so a test
// outside the package can see that a refused attach added no stage.
func IngressStages(p *Port) int { return len(p.ingress) }
