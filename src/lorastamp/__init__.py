"""LoRa CSS signal toolkit: synthesis, onset detection, frequency-bias
estimation, frame-delay attack simulation, and the matching defenses."""

__version__ = "0.1.0"
