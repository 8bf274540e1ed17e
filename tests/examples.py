"""The paper's two worked examples of the predator-prey model, as the
keyword arguments of canard.allee.AlleeParams: EX1 at the published
beta = 0.2 and EX2 at the degenerate m = m* (omega1 = 0).  The test
modules read them from here; perfbench keeps its own copy."""

EX1 = dict(m=0.3, n=0.1, alpha=0.849561, beta=0.2, gamma=0.1, eps=0.0099)
EX2 = dict(m=0.263075, n=0.1, alpha=0.8, beta=0.138485, gamma=0.4424, eps=0.01)
