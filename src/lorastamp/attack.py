"""Frame-delay attack model.

Covers the attack end to end at desk scale: SX1276 collision timing
windows, the RTM/SCR demodulation outcome map, log-distance path-loss
geometry with the vulnerable-area grid sweep, and waveform-level
collision/replay synthesis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from lorastamp.phy import (MAX_FRAME_SAMPLES, IQTrace, PhyParams, RxParams, SignalError, TxParams,
                           gen_frame, is_finite_real, is_real)
from lorastamp import demod

# Outcome tags
COLLISION_RECEIVED = "CollisionReceived"
STEALTHY = "Stealthy"
BAD_FRAME = "BadFrame"
BOTH_RECEIVED = "BothReceived"
VICTIM_RECEIVED = "VictimReceived"

# Stealthy-collision / eavesdrop thresholds (dB) and the RTM cutoff.
STEALTHY_SCR_MIN_DB = -6.0
STEALTHY_SCR_MAX_DB = 6.0
EAVESDROP_SCR_MIN_DB = 6.0
RTM_STEALTHY_MAX = 0.4
MAX_GRID_CELLS = 1_000_000  # traced peak ~96 MB in vulnerable_area; the CLI with its CSV ~125 MB max RSS

# collision_outcome_waveform's radios.  Distinct radios never share a carrier:
# the collider has its own small FB and phase, so chance symbol ties against
# the victim break physically
VICTIM_TX = TxParams()
COLLIDER_TX = TxParams(fb_hz=100.0, phase_rad=1.0)
WAVEFORM_RX = RxParams()


class AttackError(ValueError):
    """Invalid attack parameterization."""


class ScenarioFileError(IOError):
    """Missing, unreadable or malformed scenario file."""


def _finite(name: str, value) -> bool:
    """Whether a scenario number is finite, as ``phy.is_finite_real`` asks
    (False for NaN, an infinity or an integer beyond float range); a
    TypeError when it is no number at all (a bool, a string or None)."""
    if not is_real(value):
        raise TypeError(f"{name} must be a number, not {type(value).__name__}")
    return is_finite_real(value)


@dataclass(frozen=True)
class CollisionWindows:
    """Collision timing windows (ms) for one (S, payload) configuration."""

    w1_ms: float
    w2_ms: float
    w3_ms: float

    def __post_init__(self) -> None:
        if not 0 < self.w1_ms < self.w2_ms < self.w3_ms:
            raise AttackError("windows must satisfy 0 < w1 < w2 < w3")


# Measured SX1276 collision windows, one row per measured configuration.
# The S=7/30-byte configuration appears in both sweeps of the measurement
# campaign (payload sweep and spreading-factor sweep), hence twice here.
WINDOW_ROWS: tuple[tuple[int, int, float, float, float], ...] = (
    (7, 10, 5, 28, 141),
    (7, 20, 5, 38, 156),
    (7, 30, 6, 41, 165),
    (7, 40, 6, 54, 178),
    (7, 30, 6, 41, 165),
    (8, 30, 10, 82, 208),
    (9, 30, 22, 156, 274),
)


def lookup_windows(spreading_factor: int, payload_bytes: int) -> CollisionWindows:
    """Collision windows for (S, payload), in milliseconds.

    Linear in payload size between the measured rows of the same S, so a
    measured payload reads its own row; outside those rows it raises.
    """
    rows = sorted({row[1:] for row in WINDOW_ROWS if row[0] == spreading_factor})
    if not rows or not rows[0][0] <= payload_bytes <= rows[-1][0]:
        raise AttackError(f"no measured windows for S={spreading_factor}, payload={payload_bytes} B")
    payloads, *windows = zip(*rows)
    return CollisionWindows(*(float(np.interp(payload_bytes, payloads, w)) for w in windows))


def classify_by_timing(collision_lag_ms: float, windows: CollisionWindows) -> str:
    """Demodulation outcome from the collision's start lag behind the victim."""
    if not collision_lag_ms >= 0:
        raise AttackError("collision lag must be non-negative")
    if collision_lag_ms <= windows.w1_ms:
        return COLLISION_RECEIVED
    if collision_lag_ms <= windows.w2_ms:
        return STEALTHY
    if collision_lag_ms <= windows.w3_ms:
        return BAD_FRAME
    return BOTH_RECEIVED


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss L = L0 + 10 n log10(d / d0)."""

    model: str = "LOG_DISTANCE"
    exponent: float = 2.75
    reference_loss_db: float = 120.0
    reference_distance_m: float = 1000.0

    def __post_init__(self) -> None:
        if not isinstance(self.model, str):
            raise TypeError(f"path-loss model must be a string, not {type(self.model).__name__}")
        if self.model != "LOG_DISTANCE":
            raise AttackError(f"unknown path-loss model {self.model!r}")
        finite = [_finite(name, getattr(self, name))
                  for name in ("exponent", "reference_loss_db", "reference_distance_m")]
        if not (all(finite) and self.exponent > 0 and self.reference_loss_db >= 0
                and self.reference_distance_m > 0):
            raise AttackError("path-loss parameters out of range")


def path_loss(model: PathLossModel, from_pos, to_pos):
    """Path loss in dB over the 3-D Euclidean distance between positions.

    Either side may be one (x, y, alt) position or an array of them along
    the last axis; one pair gives a float.  A zero or overflowing distance raises.
    """
    with np.errstate(over="ignore"):  # an overflow leaves inf, rejected below
        d = np.linalg.norm(np.subtract(from_pos, to_pos, dtype=float), axis=-1)
    if not np.all((d > 0) & (d < math.inf)):
        raise AttackError("coincident positions or an overflowing distance: path loss undefined")
    loss = model.reference_loss_db + 10 * model.exponent * np.log10(d / model.reference_distance_m)
    return loss if loss.ndim else float(loss)


@dataclass
class CollisionScenario:
    """Geometry, powers, and timing of one frame-delay attack instance.

    Positions are (x, y, alt) in meters.  A field that is no number (a
    bool, a string, None, a position that is no sequence) raises
    TypeError; a number out of range (NaN, an infinity, an integer beyond
    float range, an rtm outside [0, 1], a negative replay delay) or a
    position of other than 3 coordinates raises AttackError.
    """

    gateway: tuple[float, float, float] = (0.0, 0.0, 25.0)
    collider: tuple[float, float, float] = (50.0, 0.0, 0.0)
    eavesdropper: tuple[float, float, float] = (400.0, 0.0, 0.0)
    victim: tuple[float, float, float] = (200.0, 0.0, 0.0)
    p_victim_dbm: float = 14.0
    p_collider_dbm: float = 2.0
    rtm: float = 0.2
    replay_delay_s: float = 0.0
    replayer_fb_hz: float = 0.0

    def __post_init__(self) -> None:
        if not (_finite("rtm", self.rtm) and 0 <= self.rtm <= 1):
            raise AttackError("rtm must be in [0, 1]")
        for name in ("p_victim_dbm", "p_collider_dbm", "replay_delay_s", "replayer_fb_hz"):
            if not _finite(name, getattr(self, name)):
                raise AttackError(f"{name} must be finite")
        if self.replay_delay_s < 0:
            raise AttackError("replay delay must be non-negative")
        for name in ("gateway", "collider", "eavesdropper", "victim"):
            pos = tuple(getattr(self, name))
            if not (all([_finite(f"{name} coordinate", v) for v in pos]) and len(pos) == 3):
                raise AttackError(f"{name} position must be 3 finite coordinates")
            setattr(self, name, tuple(map(float, pos)))


def save_scenario(path: str | Path, scenario: CollisionScenario, model: PathLossModel) -> None:
    doc = {"scenario": asdict(scenario), "path_loss": asdict(model)}
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def load_scenario(path: str | Path) -> tuple[CollisionScenario, PathLossModel]:
    """Read a scenario file written by ``save_scenario``.

    Raises ScenarioFileError when the file cannot be read, is not JSON or
    does not have the shape of a scenario: an unknown key, or a field of
    the wrong type, such as a bool, a string or null where a number goes.
    Raises AttackError when its values are out of range: NaN, Infinity, an
    integer beyond float range or a number outside its field's range (see
    ``CollisionScenario`` and ``PathLossModel``).
    """
    try:
        doc = json.loads(Path(path).read_text())
        scenario = CollisionScenario(**doc.get("scenario", {}))
        return scenario, PathLossModel(**doc.get("path_loss", {}))
    except AttackError:
        raise
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise ScenarioFileError(f"scenario file {path}: {exc}") from exc


def scr_at(receiver_pos, scenario: CollisionScenario, model: PathLossModel) -> float:
    """Signal-to-collision ratio at a receiver: victim minus collider received power."""
    p_v = scenario.p_victim_dbm - path_loss(model, scenario.victim, receiver_pos)
    p_c = scenario.p_collider_dbm - path_loss(model, scenario.collider, receiver_pos)
    scr = p_v - p_c
    if not math.isfinite(scr):  # finite powers near the float limit overflow
        raise AttackError("signal-to-collision ratio overflows")
    return scr


@dataclass(frozen=True)
class VulnerableArea:
    core_area_m2: float
    # the grid: cell (i, j) is centred on (xs[i], ys[j])
    xs: np.ndarray = field(repr=False)  # the nx cell centres along x
    ys: np.ndarray = field(repr=False)  # the ny cell centres along y
    classes: np.ndarray = field(repr=False)  # (nx, ny): "core" | "ring" | "disk" | "none"


def vulnerable_area(
    scenario: CollisionScenario,
    model: PathLossModel,
    bounds: tuple[float, float, float, float],
    resolution_m: float,
    sensitivity_dbm: float | None = None,
) -> VulnerableArea:
    """Sweep the victim position over a grid and classify each cell.

    A cell is in the gateway *ring* when the stealthy-collision SCR band
    holds at the gateway, in the eavesdropper *disk* when the
    eavesdropping SCR condition holds, and *core* (vulnerable) when both
    do.  ``sensitivity_dbm`` optionally prunes cells whose victim signal
    is below the eavesdropper's receiver sensitivity.  A cell centred on
    a receiver raises, as ``path_loss`` does for coincident positions, and
    so does a grid of more than MAX_GRID_CELLS cells, before it is built.
    """
    if not 0 < resolution_m <= 5:
        raise AttackError("grid resolution must be in (0, 5] m")
    if not all(math.isfinite(b) for b in bounds):
        raise AttackError("grid bounds must be finite")
    x0, x1, y0, y1 = bounds
    nx, ny = (max(hi - lo, 0) / resolution_m + 1 for lo, hi in ((x0, x1), (y0, y1)))
    if nx * ny > MAX_GRID_CELLS:  # bounds the np.arange lengths ceil(span / resolution)
        raise AttackError(f"grid of more than {MAX_GRID_CELLS} cells: coarsen the resolution")
    xs = np.arange(x0, x1, resolution_m) + resolution_m / 2
    ys = np.arange(y0, y1, resolution_m) + resolution_m / 2
    if xs.size == 0 or ys.size == 0:
        raise AttackError("empty grid")
    victims = np.empty((xs.size, ys.size, 3))
    victims[..., 0], victims[..., 1], victims[..., 2] = xs[:, None], ys, scenario.victim[2]
    p_c_gw = scenario.p_collider_dbm - path_loss(model, scenario.collider, scenario.gateway)
    p_c_ev = scenario.p_collider_dbm - path_loss(model, scenario.collider, scenario.eavesdropper)
    rx_gw = scenario.p_victim_dbm - path_loss(model, victims, scenario.gateway)
    rx_ev = scenario.p_victim_dbm - path_loss(model, victims, scenario.eavesdropper)
    scr_gw = rx_gw - p_c_gw
    scr_ev = rx_ev - p_c_ev

    in_ring = (scr_gw >= STEALTHY_SCR_MIN_DB) & (scr_gw <= STEALTHY_SCR_MAX_DB)
    in_disk = scr_ev >= EAVESDROP_SCR_MIN_DB
    if sensitivity_dbm is not None:
        in_disk &= rx_ev >= sensitivity_dbm
    code = in_ring + 2 * in_disk  # a cell's index into the class names below
    core_area = float(np.count_nonzero(code == 3)) * resolution_m ** 2
    classes = np.array(["none", "ring", "disk", "core"], dtype=object)[code]
    return VulnerableArea(core_area, xs, ys, classes)


def write_cell_map(path: str | Path, area: VulnerableArea) -> None:
    """Emit the grid classification as ``x,y,class`` CSV for plotting.

    One line per cell, x outer and y inner.  Each y is formatted once; the
    file is written one grid row (the ny cells of one x) at a time."""
    y_text = np.array([f"{y:.3f}," for y in area.ys.tolist()], dtype=object)
    with open(path, "w") as out:
        out.write("x,y,class\n")
        for x, row in zip(area.xs.tolist(), area.classes):
            out.write("\n".join((f"{x:.3f}," + y_text + row).tolist()) + "\n")


def synthesize_collision(
    victim: IQTrace, collision: IQTrace, scr_db: float, rtm: float
) -> IQTrace:
    """Superimpose a collision onto the victim frame.

    The collision is amplitude-scaled so the victim-to-collision power
    ratio (``IQTrace.power``s) equals ``scr_db`` (+inf: the victim alone)
    and delayed by ``rtm`` of the victim frame time; the collision tail
    beyond the victim frame is kept.  The mix is written once, with no
    zero-filled buffer and no temporary: the scaled collision written in
    place, the victim added over the overlap and copied where the collision
    is not, and the gap between the victim and a late collision zeroed.
    Checked before any array exists:
    AttackError for an rtm that is negative or not finite or an scr_db of
    NaN or -inf, SignalError for a mix longer than MAX_FRAME_SAMPLES; an
    scr_db so low that the scaled collision's energy leaves float range is
    an AttackError too, found from the two powers alone.
    """
    if victim.sample_rate != collision.sample_rate:
        raise SignalError("sample rates must match")
    _check_placement(scr_db, rtm)
    if scr_db == math.inf:
        return victim.copy()
    lead = rtm * len(victim)  # the collision's start in samples, inf if it overflows
    if lead > MAX_FRAME_SAMPLES or round(lead) + len(collision) > MAX_FRAME_SAMPLES:
        raise SignalError(f"a collision {lead:.0f} samples in ends past "
                          f"MAX_FRAME_SAMPLES = {MAX_FRAME_SAMPLES}")
    p_v = victim.power()
    p_c = collision.power()
    if p_v <= 0 or p_c <= 0:
        raise SignalError("both traces must carry signal power")
    offset = round(lead)
    total = max(len(victim), offset + len(collision))
    try:
        scale = p_v / p_c * 10 ** (-scr_db / 10)
    except OverflowError:  # 10 ** x raises past float range; a product only goes inf
        scale = math.inf
    if not scale * p_c * total < math.inf:  # the scaled energy, so later power sums stay finite
        raise AttackError(f"scr_db {scr_db} scales the collision's energy past float range")
    nv, nc = len(victim), len(collision)
    overlap = min(max(nv - offset, 0), nc)  # collision samples that land on the victim
    out = np.empty(total, dtype=np.complex128)
    head = min(offset, nv)
    out[:head] = victim.samples[:head]  # the victim before the collision
    out[nv:offset] = 0  # the gap, if any, between the victim's end and the collision's start
    collided = out[offset:offset + nc]
    np.multiply(collision.samples, math.sqrt(scale), out=collided)
    collided[:overlap] += victim.samples[offset:offset + overlap]
    out[offset + nc:nv] = victim.samples[offset + nc:]  # the victim past a collision that ends inside it
    return IQTrace(out, victim.sample_rate, victim.t0_ns)


def _check_placement(scr_db: float, rtm: float) -> None:
    """AttackError for an rtm that is negative or not finite or an scr_db of NaN or -inf."""
    if not 0 <= rtm < math.inf:
        raise AttackError(f"rtm must be non-negative and finite, got {rtm}")
    if not scr_db > -math.inf:
        raise AttackError(f"scr_db must be a number above -inf, got {scr_db}")


def replay(
    trace: IQTrace,
    delay_s: float,
    replayer_fb_hz: float,
    replayer_phase_rad: float | None = None,
    rng_seed: int | None = None,
) -> IQTrace:
    """Delayed replay of a recorded waveform through an attacker radio chain.

    The replay arrives ``delay_s`` later and carries the replay chain's
    own frequency offset; its carrier phase is arbitrary (uniform random
    unless given).  The delay must be a finite count of nanoseconds.
    """
    if not 0 <= delay_s * 1e9 < math.inf:
        raise AttackError("replay delay must be non-negative and finite")
    if replayer_phase_rad is None:
        replayer_phase_rad = float(np.random.default_rng(rng_seed).uniform(0, 2 * math.pi))
    t = trace.times()
    rotated = trace.samples * np.exp(
        1j * (2 * math.pi * replayer_fb_hz * t + replayer_phase_rad)
    )
    return IQTrace(rotated, trace.sample_rate, trace.t0_ns + round(delay_s * 1e9))


class OutcomeMap:
    """Empirical (RTM, SCR) -> demodulation outcome map.

    The stealthy region is exactly the RTM < 0.4 band of the stealthy
    SCR interval [-6, 6] dB; a strong collision captures the demodulator,
    a weak one is rejected, and a fully misaligned one coexists.
    """

    def classify(self, rtm: float, scr_db: float) -> str:
        if rtm < 0:
            raise AttackError("rtm must be non-negative")
        if rtm >= 1:
            return BOTH_RECEIVED
        if scr_db < STEALTHY_SCR_MIN_DB:
            return COLLISION_RECEIVED
        if scr_db > STEALTHY_SCR_MAX_DB:
            return VICTIM_RECEIVED
        if rtm < RTM_STEALTHY_MAX:
            return STEALTHY
        # late collision: the victim's sync and header survive; a collision
        # at or below the victim's power loses the payload symbol race,
        # a stronger one corrupts the payload into a checksum failure
        return VICTIM_RECEIVED if scr_db >= 0 else BAD_FRAME


def collision_outcome_waveform(
    phy: PhyParams,
    victim_payload,
    collider_payload,
    scr_db: float,
    rtm: float,
) -> str:
    """Waveform-level collision outcome via the dechirp-FFT decoder.

    Synthesizes both frames at 2 W samples/s, superimposes them at (SCR,
    RTM) without noise, then tries to decode each at its own onset with
    its own preamble FB removed (``demod.decode_frame``, which keeps every
    second sample): a frame counts as received when its sync windows
    survive and every payload symbol decodes correctly.  At ``scr_db`` =
    +inf no collider is on air: none is synthesized and the victim frame
    itself is decoded, whatever the rtm.
    """
    sample_rate = 2 * phy.bandwidth_hz
    victim = gen_frame(phy, VICTIM_TX, WAVEFORM_RX, victim_payload, sample_rate)
    length = len(victim)
    if scr_db == math.inf:  # no collider on air: decode the victim frame itself
        _check_placement(scr_db, rtm)
        mixed = victim
    else:  # the collider lives only for the mix
        collider = gen_frame(phy, COLLIDER_TX, WAVEFORM_RX, collider_payload, sample_rate)
        mixed = synthesize_collision(victim, collider, scr_db, rtm)
        del collider
    del victim  # no frame but the mix stays alive while it decodes
    offset = round(rtm * length)

    def received(onset: int, payload) -> tuple[bool, bool]:
        dec = demod.decode_frame(mixed, phy, len(payload), onset_sample=onset)
        return dec.sync_ok, dec.symbols == tuple(payload)

    v_sync, v_payload_ok = received(0, victim_payload)
    c_sync, c_payload_ok = received(offset, collider_payload) if scr_db < math.inf else (False, False)
    v_ok = v_sync and v_payload_ok
    c_ok = c_sync and c_payload_ok
    if v_ok and c_ok:
        return BOTH_RECEIVED
    if c_ok:
        return COLLISION_RECEIVED
    if v_ok:
        return VICTIM_RECEIVED
    if v_sync and not v_payload_ok:
        return BAD_FRAME
    return STEALTHY
