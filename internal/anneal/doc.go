// Package anneal implements the local-search engine of the paper: simulated
// annealing with the adaptive cooling schedule of Lam and Delosme, adaptive
// move-kind selection, and a zero-temperature quench.
//
// The adaptive schedule treats the cost function as the energy of a
// dynamical system and maximizes the cooling rate subject to maintaining
// quasi-equilibrium; its control law is expressed purely in terms of online
// statistics of the cost signal (acceptance ratio and cost dispersion), so
// the schedule requires no problem-specific tuning — the property the paper
// highlights against tabu search and genetic algorithms. A single scalar
// "quality" knob trades optimization quality for computing time, exactly as
// the tool's user-facing knob described in the abstract.
//
// The Metropolis test of each proposal is a Gate that the runner hands to
// the move (Move.Apply). A move that learns a lower
// bound on its new cost before its evaluation is complete asks
// Gate.Rejects; once the bound alone decides a rejection, the move stops
// evaluating and the runner reverts it unread. The gate draws its uniform
// at the one stream position the rule has always used, at most once, so a
// run is bit-identical whether its moves ask or not.
package anneal
