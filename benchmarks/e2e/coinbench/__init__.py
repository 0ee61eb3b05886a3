"""coinbench: the end-to-end, layer-attributed benchmark of the mediator."""
