"""Why the spectral condition for rigid subgraph packings is tight.

A sufficient condition for a graph with minimum degree >= 6r to contain r
edge-disjoint spanning rigid subgraphs is mu_2 > (6r-1)/(delta+1).  The family
G(3r-1, d) shows the threshold cannot be relaxed: its clique partition gives
a counting certificate with deficit 3r-1 (so fewer than r such subgraphs
exist), while

    (6r-1)/(d+3) < mu_2 <= (6r-1)/(d+1),

i.e. mu_2 misses the sufficient threshold but would clear any relaxation of
it toward (6r-1)/(d+3).
"""

from extremal_trees import check_spectral_rigidity_hypotheses, rigidity_certificate

for r in (1, 2, 3):
    d = 6 * r
    cert = rigidity_certificate(r, d)
    print(f"r={r}, d={d}: partition certificate crossing={cert.crossing}, "
          f"required={cert.required}, deficit={cert.deficit} = 3r-1")
    hyp = check_spectral_rigidity_hypotheses(r, d)
    print(f"  mu2 = {hyp.mu2:.9f} in ({hyp.relaxed_threshold:.9f}, {hyp.threshold:.9f}]")
    print(f"  sufficient condition mu2 > {hyp.threshold:.9f} holds: "
          f"{hyp.mu2 > hyp.threshold} (as it must not)")
    print(f"  relaxed threshold {hyp.relaxed_threshold:.9f} would be cleared: "
          f"{hyp.mu2 > hyp.relaxed_threshold}")
    print()
