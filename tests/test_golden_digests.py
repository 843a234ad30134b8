"""Golden digests of whole-run metrics and release times.

Each digest is the SHA-256 of the canonical JSON (sorted keys) of a run's
``ScenarioMetrics.to_dict()`` — every counter, every response-time sample in
completion order, per-task completions, utilization, fault impact and the
per-GPU breakdown.  The digests were recorded from the GPU-engine
implementation of the ``clockwork`` backend and the cluster workers; the
closed-form :class:`~repro.gpu.exclusive.ExclusiveDevice` that replaced it
must reproduce them byte for byte.  A mismatch is a defect in the device
model, never a reason to re-record.

Covered: ``clockwork`` x {periodic, poisson, bursty, diurnal} x every
``NAMED_FAULTS`` profile x 2 seeds, at the default admission slack and at
0.8 / 1.25 (the DSE ``clockwork.slack`` axis), and the 7-scenario cluster matrix
(replicated/partitioned x 3 routers x migration x targeted crash/throttle)
x 2 seeds.

The release consumers are pinned too, because every backend's arrivals go
through one :class:`~repro.sim.workload.ReleaseStream`: ``daris`` at MPS
6x1 OS6 and MPS+STR 3x3 OS1, ``rtgpu``, and the ``batching_server`` in
arrival mode (``drive_aggregate``), each x {periodic, poisson, bursty,
diurnal, jittered} x 2 seeds.  Those digests were recorded from the bulk
release insertion (every release pushed before the run) and must hold
unchanged for the one-pending-release-per-stream driver that replaced it.

The MPS engine, the DARIS scheduler and the saturated servers are pinned
under every ``NAMED_FAULTS`` profile x 2 seeds (periodic, 800 ms): ``daris``
at MPS 6x1 OS6 and STR 10 (ten kernels water-filled inside one context),
and ``gslice`` (resnet18 + unet partitions), ``single`` and
``batching_server`` on ``SATURATED_WORKLOAD``.  Those cover engine noise,
fault draws, the single-kernel, one-kernel-per-context and general replan
paths, and the admission backlog.  ``diurnal-times`` pins the sinusoidal
profile inversion directly: the SHA-256 of the raw release times of a
Poisson base under a sin diurnal profile (25,000 releases).  These digests
were recorded when each of those paths still had a second, toggled
reference implementation, and both implementations gave the same digest,
with one exception: at amplitude 0.9 the Newton inverter and the 64-step
bisection disagree by a few ulp on ~0.3% of releases near the profile's
trough (see ``tests/test_sim_workload.py``), and the digest pins the
Newton inverter, the one that runs.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.configs import BatchingConfig, ClockworkConfig, GSliceConfig, SingleConfig
from repro.cluster import ClusterConfig, ClusterServer
from repro.dnn.zoo import build_model
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.scenarios import NAMED_FAULTS, named_workload
from repro.rt.taskset import make_taskset, table2_taskset
from repro.scheduler.config import DarisConfig
from repro.sim.faults import FaultSpec
from repro.sim.rng import RngFactory
from repro.sim.workload import (
    MMPP_WORKLOAD,
    PERIODIC_WORKLOAD,
    POISSON_WORKLOAD,
    SATURATED_WORKLOAD,
    ReleaseStream,
)


def metrics_digest(metrics) -> str:
    """SHA-256 of the canonical (sorted-key) JSON of ``metrics.to_dict()``."""
    text = json.dumps(metrics.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ------------------------------------------------------------- clockwork

CLOCKWORK_WORKLOADS = ("periodic", "poisson", "bursty", "diurnal")
CLOCKWORK_SEEDS = (1, 2)
CLOCKWORK_SLACKS = ("0.8", "1.25")


def clockwork_metrics(workload: str, fault: str, seed: int, slack: float = 1.0):
    request = ScenarioRequest(
        table2_taskset("resnet18"),
        ClockworkConfig(admission_slack=slack),
        1000.0,
        scheduler="clockwork",
        workload=named_workload(workload),
        faults=NAMED_FAULTS[fault],
        seed=seed,
    )
    return get_backend("clockwork").execute(request).metrics


# --------------------------------------------------------------- cluster

CLUSTER_MATRIX = {
    "least_loaded": (dict(num_gpus=4, router="least_loaded"), None),
    "round_robin": (dict(num_gpus=4, router="round_robin"), None),
    "deadline_aware": (dict(num_gpus=4, router="deadline_aware"), None),
    "partitioned": (
        dict(num_gpus=4, router="least_loaded", placement="partitioned"),
        None,
    ),
    "partitioned-migration": (
        dict(
            num_gpus=4,
            router="deadline_aware",
            placement="partitioned",
            migration_backlog=2,
            migration_window_ms=40.0,
        ),
        None,
    ),
    "targeted-crash": (
        dict(num_gpus=4, router="least_loaded"),
        FaultSpec.crashes(mtbf_ms=100.0, recovery_ms=60.0).targeting(1),
    ),
    "targeted-throttle": (
        dict(num_gpus=4, router="deadline_aware"),
        FaultSpec.throttle(period_ms=120.0, duration_ms=50.0, factor=0.5).targeting(0),
    ),
}
CLUSTER_SEEDS = (3, 11)


def serve_cluster(label: str, seed: int, on_dispatch=None):
    """``(metrics, server)`` of one cluster-matrix row."""
    cfg_kwargs, faults = CLUSTER_MATRIX[label]
    taskset = make_taskset(
        [build_model("resnet18")], num_high=3, num_low=5, task_jps=40.0, name="cluster-eq"
    )
    server = ClusterServer(ClusterConfig(**cfg_kwargs))
    metrics = server.serve(
        taskset,
        1500.0,
        workload=POISSON_WORKLOAD,
        rng=RngFactory(seed),
        faults=faults,
        on_dispatch=on_dispatch,
    )
    return metrics, server


def cluster_metrics(label: str, seed: int):
    return serve_cluster(label, seed)[0]


# ----------------------------------------------------- release consumers

RELEASE_CONSUMERS = {
    "daris-mps6x1-os6": ("daris", DarisConfig.mps_config(num_contexts=6, oversubscription=6.0)),
    "daris-mpsstr3x3-os1": (
        "daris",
        DarisConfig.mps_str_config(num_contexts=3, streams_per_context=3, oversubscription=1.0),
    ),
    "rtgpu": ("rtgpu", DarisConfig.mps_config(num_contexts=6, oversubscription=6.0)),
    "batching_server": ("batching_server", BatchingConfig()),
}
# ``jittered`` puts the shared-stream jitter modulator (clamped to stay
# monotone) over bursty MMPP gaps, which are often shorter than the jitter.
RELEASE_WORKLOADS = ("periodic", "poisson", "bursty", "diurnal", "jittered")
RELEASE_SEEDS = (1, 2)


def release_metrics(consumer: str, workload: str, seed: int):
    scheduler, config = RELEASE_CONSUMERS[consumer]
    spec = MMPP_WORKLOAD.with_jitter(1.5) if workload == "jittered" else named_workload(workload)
    request = ScenarioRequest(
        table2_taskset("resnet18"),
        config,
        800.0,
        scheduler=scheduler,
        workload=spec,
        seed=seed,
    )
    return get_backend(scheduler).execute(request).metrics


# ------------------------------------------ faulted MPS engine and servers

FAULT_SEEDS = (1, 2)
DARIS_FAULT_CONFIGS = {
    "mps6x1-os6": DarisConfig.mps_config(num_contexts=6, oversubscription=6.0),
    "str10": DarisConfig.str_config(10),
}


def daris_fault_metrics(config: str, fault: str, seed: int):
    request = ScenarioRequest(
        table2_taskset("resnet18"),
        DARIS_FAULT_CONFIGS[config],
        800.0,
        scheduler="daris",
        workload=PERIODIC_WORKLOAD,
        faults=NAMED_FAULTS[fault],
        seed=seed,
    )
    return get_backend("daris").execute(request).metrics


def _saturated_taskset(backend: str):
    if backend == "gslice":
        models = [build_model("resnet18"), build_model("unet")]
        return make_taskset(models, num_high=1, num_low=1, task_jps=40.0, name="saturated")
    return table2_taskset("resnet18")


SATURATED_BACKENDS = {
    "gslice": GSliceConfig(),
    "single": SingleConfig(),
    "batching_server": BatchingConfig(),
}


def saturated_metrics(backend: str, fault: str, seed: int):
    request = ScenarioRequest(
        _saturated_taskset(backend),
        SATURATED_BACKENDS[backend],
        800.0,
        scheduler=backend,
        workload=SATURATED_WORKLOAD,
        faults=NAMED_FAULTS[fault],
        seed=seed,
    )
    return get_backend(backend).execute(request).metrics


# --------------------------------------------------- diurnal release times

DIURNAL_AMPLITUDES = ("0.6", "0.9")
DIURNAL_RELEASES = 25_000


def diurnal_times_digest(amplitude: float, seed: int) -> str:
    """SHA-256 of the raw release times (float64 bytes) of one Poisson
    stream at 1,000 jobs/s under a 1 s sinusoidal diurnal profile."""
    workload = POISSON_WORKLOAD.with_diurnal(period_ms=1000.0, amplitude=amplitude)
    process = ReleaseStream(workload, RngFactory(seed)).arrival_for(0, period_ms=1.0)
    times = [event.time for event in process.events(25_000.0)]
    assert len(times) >= 20_000
    return hashlib.sha256(np.asarray(times, dtype=np.float64).tobytes()).hexdigest()


GOLDEN_DIGESTS = {
    "clockwork/periodic/none/1": "3369dd21ea85db43f88102db9407012d3f002bc07ba7269d6f378d551a31b8c8",
    "clockwork/periodic/none/2": "3369dd21ea85db43f88102db9407012d3f002bc07ba7269d6f378d551a31b8c8",
    "clockwork/periodic/throttle/1": "6e10b86f325fcaa134cbebe4b8e0721b187481a886c5689f2ba9a6d309cb81b3",
    "clockwork/periodic/throttle/2": "6e10b86f325fcaa134cbebe4b8e0721b187481a886c5689f2ba9a6d309cb81b3",
    "clockwork/periodic/flaky-launch/1": "49720678ca2cd252d994365b82fbb592cac1c213efc9bc01944fe4730cc80016",
    "clockwork/periodic/flaky-launch/2": "77bda72a0b7381659b59022a1866b5ed59cd76c7c4b4565c397cb574dacb89b8",
    "clockwork/periodic/crashy/1": "ecc411d5e1fcc3eb494f5d32ebb4706e5ec7b97399ce4d6c27ed84dc1a3df060",
    "clockwork/periodic/crashy/2": "bbdbeb58f0f9b70d39dfa213d1dafac752ee59121ab5eb09a858f23eb640275b",
    "clockwork/periodic/lossy/1": "3f5dbc9552296541fa98a379fff3d7855f3058ece167ddcb83131e17ae090bdf",
    "clockwork/periodic/lossy/2": "3957221c6b94ea47932d1c2da6342f8aa014e2ae0f2805f7b23953799bffbe62",
    "clockwork/periodic/storm/1": "b5f6b8a13600f2a0207280fe6841c5f1130dd8c9201c28d957dbcb43ee03d722",
    "clockwork/periodic/storm/2": "91ced6549e9fa28b58cf7ddda1b424b86960dfe602d7dce3e3207c7962ae2116",
    "clockwork/poisson/none/1": "961d4a8d99e7200acac374c1b2612f544391ebe084389f167960ed15fb90f1a0",
    "clockwork/poisson/none/2": "95a8e4f069559fa001ea7708994edcd60bb7a1f00ad782c080c891befde8310c",
    "clockwork/poisson/throttle/1": "3606e7b608ec13f5a61fc3fc3a90f6ac60d2f93620483eb80c45e0b7649268cb",
    "clockwork/poisson/throttle/2": "dc6bcbcae7e5d73d57b66f483bdd52cbde0c0be1b01e543e58fb034b1a563ad6",
    "clockwork/poisson/flaky-launch/1": "dd69bb49387dbc1cf1809bc6600b79868b984e1cb2bf53819da35ed9c8d95314",
    "clockwork/poisson/flaky-launch/2": "178d0298c575e72311b879556ec800e66df51e347815b691eed3ee03d1990015",
    "clockwork/poisson/crashy/1": "4be7db568a29269e51fbedb726cf33e4b8cf0bfe62f9578e40d4df9ccd875784",
    "clockwork/poisson/crashy/2": "a250483e228eb6fdbe2e18276a9e379dc8c916493fea864fcbc05959b6882013",
    "clockwork/poisson/lossy/1": "9bf780f87c78d01807c0a011117f0bb79d38d80e87d2900f3de9052998a145a2",
    "clockwork/poisson/lossy/2": "4a9b6d46288755ee6647ffd963f01ce3e2526cfbc21907473293c82063d5c922",
    "clockwork/poisson/storm/1": "fbe79af1b0fedd12075c41fd89836c11e764925f8a81ba84eb64311faa1407fc",
    "clockwork/poisson/storm/2": "c36b7aa9b0429b8d177a29b9e66326cc0fb12e8932d8f61c926ef4efb8a93d69",
    "clockwork/bursty/none/1": "7858580349fea831b34fb2bb0e358bd9c7dffc4490d6d319db68b905be056c82",
    "clockwork/bursty/none/2": "78d00d0073d3b0c26262bc514d0162b5283a65acc8425a572c93847f990f270e",
    "clockwork/bursty/throttle/1": "a7a6d93a36e358a9ed7336efec4a330880892ba1181ddd198b09b9731832262b",
    "clockwork/bursty/throttle/2": "808ef8e76892d73906c01ecc2662363f8753f4a63a59d16ff384b57243e1e50a",
    "clockwork/bursty/flaky-launch/1": "c0862d990f43241b9deca00ab96b4443cfbe49d27344bb6f82c5ce4938a558eb",
    "clockwork/bursty/flaky-launch/2": "4cdb0db39c722a5b0be3c3558f714a4fa519e56da46fe6dc499fd751a72681d6",
    "clockwork/bursty/crashy/1": "877a3cfe02cf6e812bb9718e64ce9aea7dc3bdf2ee266039ca150969a81d5b12",
    "clockwork/bursty/crashy/2": "901cfd75e3938034115858477b2b21d18d54c5762fb52414454ecf3c5568bb9e",
    "clockwork/bursty/lossy/1": "f270823fb7d69e0aea0fa0eb6449a52f3298f6c1b64451623baa2d279b54fcb9",
    "clockwork/bursty/lossy/2": "312d77ed3bbcaa41180f8f357b9f1667a4ee99e7358a74209bef6954f2c825f3",
    "clockwork/bursty/storm/1": "68529a8dfaeaa62408e5ca141e9fcb74d08a9a392f87e3ab47e9d4bafaf2768b",
    "clockwork/bursty/storm/2": "d90fae429e943656dd0b93f1cfd9ec2574a1324692b3429e82945a5c34ea6a44",
    "clockwork/diurnal/none/1": "dff36607a24e59ebd49c17b2deb4b7bef7f775cbdaf924aa10ab7582c3e4fbae",
    "clockwork/diurnal/none/2": "1aa40c53c773706ebf80dec2d6da9bff01b7257ad1e22bfadafcef138dd29521",
    "clockwork/diurnal/throttle/1": "71bf335943363b5e4e658a996b0ef9875daee34fa865db3e08500b2003358916",
    "clockwork/diurnal/throttle/2": "a6957192bb93c608422c229abd1b45295e5288f776dc1b1695d84ce05d545e5a",
    "clockwork/diurnal/flaky-launch/1": "7bb6a9e9feead1093bdbf1229c2352dcb951a40afc25f5b4e56acac1b6e32887",
    "clockwork/diurnal/flaky-launch/2": "2a368c0862ef000a723063d8c1aecaf1056f03d14f99fda458b2c745b7d5a7ea",
    "clockwork/diurnal/crashy/1": "b02fe4c36ca082f29b0d5bfa30ad835d89fe2dabdda5393d62444a33d3299caa",
    "clockwork/diurnal/crashy/2": "633b95d45959f152ca368c2dafa68241044ca103d957a72e6f42fc8938db96df",
    "clockwork/diurnal/lossy/1": "6ac19f66c92acf5ec883fec93165d90b83581d385d1d6fafa31fb389ec849c98",
    "clockwork/diurnal/lossy/2": "63cab7c20fd7c425938bba48e670fd1a40ca82d5c81687783b835bf85b0d23c4",
    "clockwork/diurnal/storm/1": "1d6770c6acfa318ca87ad53fe7ced74d3c8f0f7919067e7e15a865d58528dfc3",
    "clockwork/diurnal/storm/2": "4e880d23832d71a8f8d04c02989bf7f7792626b3155c4f3732df46c8e46adbb3",
    "clockwork-slack/0.8/periodic/none/1": "bf96e59511b9bf19ca3a30a8a12b359940b8ee2fe4542cdf20dd78a147d250a5",
    "clockwork-slack/1.25/periodic/none/1": "0687ae2a23bd796e95d802798f772d6b4768bc896410693565ad565934775900",
    "clockwork-slack/0.8/periodic/none/2": "bf96e59511b9bf19ca3a30a8a12b359940b8ee2fe4542cdf20dd78a147d250a5",
    "clockwork-slack/1.25/periodic/none/2": "0687ae2a23bd796e95d802798f772d6b4768bc896410693565ad565934775900",
    "clockwork-slack/0.8/periodic/throttle/1": "cdb08e2bb62e73f392dfd2e5635d10a8e6f52f353c24e4e2e3758aaddb5bbc0d",
    "clockwork-slack/1.25/periodic/throttle/1": "ce5f2349c391c591a100ea482e42ca3657cc6191d11055ffd58eb610d7199921",
    "clockwork-slack/0.8/periodic/throttle/2": "cdb08e2bb62e73f392dfd2e5635d10a8e6f52f353c24e4e2e3758aaddb5bbc0d",
    "clockwork-slack/1.25/periodic/throttle/2": "ce5f2349c391c591a100ea482e42ca3657cc6191d11055ffd58eb610d7199921",
    "clockwork-slack/0.8/periodic/flaky-launch/1": "8741f6ed8771d18c8ec09f26884ead020ff12ab18b2a1f12508e32e7e691792c",
    "clockwork-slack/1.25/periodic/flaky-launch/1": "d1ae5b1fccfd4d09425fabed3f43e67f206ccdaab9da09d232a28ef12ea98cc1",
    "clockwork-slack/0.8/periodic/flaky-launch/2": "6e12990c910a1ddd6b6a5e4da5371a77b4420dfa61c4695076eb5a432cd43924",
    "clockwork-slack/1.25/periodic/flaky-launch/2": "3533d41b110d45af5ef03bbb714737cc129e7109606cbb294adb020959c26843",
    "clockwork-slack/0.8/periodic/crashy/1": "bbbba2e0ca9d3ac41f6ad0b9c874c340e608d8a154e3a2a80e729251c5f5a446",
    "clockwork-slack/1.25/periodic/crashy/1": "6afacdd1139d92ee473328675828d60f5decdd5fa68b7b82658132e99e8d8142",
    "clockwork-slack/0.8/periodic/crashy/2": "f47dc0eaecf4bad86507e2caf02f45791a8832c85f49508adb452ff21ef3b9b2",
    "clockwork-slack/1.25/periodic/crashy/2": "d5b7e45a5b9d2a20270329bbe80868e04c583903cc1e76172828a93ee4933b31",
    "clockwork-slack/0.8/periodic/lossy/1": "fb80b13982c99a776fedd9c245e1e7aaf53b7f7ff9c02082e2e30437ee57b789",
    "clockwork-slack/1.25/periodic/lossy/1": "b2bd75fa65dd7d0b83298d3af92cfebc61ef3f16f3d5de7506a1770e6da37b43",
    "clockwork-slack/0.8/periodic/lossy/2": "a6a79f062d15ad6e13afa1e9f8d9deef44c4d7cef6810f27a1b1a8858e65bccf",
    "clockwork-slack/1.25/periodic/lossy/2": "3819335f2d23207af5db14f3254070ad3a1c20a56a3acbc5684b476de9f3b915",
    "clockwork-slack/0.8/periodic/storm/1": "5e970731a3d82c7f88937b9a5a8927de0c1b70608881efca5565d5cc8200cdd3",
    "clockwork-slack/1.25/periodic/storm/1": "b2dc9a79d06b9d6de2a232f64058c40d7f77fd83b7285186e7cb1fdde4be2be7",
    "clockwork-slack/0.8/periodic/storm/2": "fe0838c519e2b32dcc7d2cc71ec7c7230b6806d0ffd1c4e42f4adef60f20d4c7",
    "clockwork-slack/1.25/periodic/storm/2": "148594eb2118a4d5230a5d4e5be340d0324428b6c6d3e38e7a8a1b1197c62921",
    "clockwork-slack/0.8/poisson/none/1": "4f48a898ed9b3d73b07c0b3eaed9347e0bd76ccb25da0724b2ededa56627ab95",
    "clockwork-slack/1.25/poisson/none/1": "beef52f812c9b34485d3536405b1621e7219def0e683f71826c7d6fcb5f16700",
    "clockwork-slack/0.8/poisson/none/2": "baa046ed2d1bb9fca05f7787463a189587fae9cfd2b237a441ee8855cc746d5c",
    "clockwork-slack/1.25/poisson/none/2": "472558e96a4fad86995de5f388ca1f1c7fe0704b5ef248c8a02200ba2b8eaba6",
    "clockwork-slack/0.8/poisson/throttle/1": "d6b23c394fedd318ecff04be9329e5ed1e5a6cbaab3ba308aaf88cb4ec56747d",
    "clockwork-slack/1.25/poisson/throttle/1": "b7d9ba8e50d688f618eb600c117d1c28f496033b093d9ee9d82de08e0caaa07a",
    "clockwork-slack/0.8/poisson/throttle/2": "1bd435dff24e2179d011dbec23136707dc7b9e9bd768282a6e62f528af81d569",
    "clockwork-slack/1.25/poisson/throttle/2": "404f5d391613ec6a1cebab66eae3bffefae1b6feb026d00e84e7ea119b3796d8",
    "clockwork-slack/0.8/poisson/flaky-launch/1": "daa429ce59372f8a643df6a11f2d0a30bbef187de49df9d0e4b276bf70bfc4f6",
    "clockwork-slack/1.25/poisson/flaky-launch/1": "b3822a8d903054ac35c8d3a01689da0dfd15a9b752551bb220d0218620e53f12",
    "clockwork-slack/0.8/poisson/flaky-launch/2": "b9f6f67d46a5f840c45948c1d9eeb800fc08fea8dedf6e1d756663e8b209f0bc",
    "clockwork-slack/1.25/poisson/flaky-launch/2": "76931b947827150bbafc3d134e371ec4104c10fcbfc95a3930f67bb0369096f9",
    "clockwork-slack/0.8/poisson/crashy/1": "b0c8cc71a5d263994d0e6bd181468439566f36292dafd38d3eb4ab84d7d0862e",
    "clockwork-slack/1.25/poisson/crashy/1": "03ebf0b14fc4886c61269a4cdecbd816c92bef34366f02af3966f61bd4e51042",
    "clockwork-slack/0.8/poisson/crashy/2": "89f8970a216784526c5d67437803a7f0404ba784a34f4c6812af1860f3b7e5c6",
    "clockwork-slack/1.25/poisson/crashy/2": "32e30e09114c73b7e0a04a296bacca8ba6539f22f69eab2f72679ef9593d260e",
    "clockwork-slack/0.8/poisson/lossy/1": "76fe2df36c2c6fb58832808efa0c4d0fc09657700bba782397f76ce22996d1fc",
    "clockwork-slack/1.25/poisson/lossy/1": "2922cfd86ba5a10cebf5466e4177ffae10aa127262e15f83ff4067c899da379e",
    "clockwork-slack/0.8/poisson/lossy/2": "91a0fb9313d639e8a21a81d29fb0a545ef93286a7ee31cfd46786d1ac907c846",
    "clockwork-slack/1.25/poisson/lossy/2": "35896340982f86cf2f9f8c991696b5c1adc4bcd5cd60d7ed416ae698a10bfb2d",
    "clockwork-slack/0.8/poisson/storm/1": "cfddb830030e85bd17004ad4990ba614c019a497074738820f0babb2e0fbfafa",
    "clockwork-slack/1.25/poisson/storm/1": "e6ed3df1eb71519fbc5e79f60c4625b16db3d684a1b14a6af4633ab44f542cae",
    "clockwork-slack/0.8/poisson/storm/2": "3f9a1f794fc9f44aae69f840c448957e1132b6d6e20baa8f098ca0cb3a529998",
    "clockwork-slack/1.25/poisson/storm/2": "60175c54c46be025614bb52cdb7d4f87c386a6676b646dddc101eb8adbf59b81",
    "clockwork-slack/0.8/bursty/none/1": "1c533922c4f12fe97b838848aeb92263c6ab20bf60524eacce471957c27b6677",
    "clockwork-slack/1.25/bursty/none/1": "9904b5c30736d87ce89558c5af393a11a35895a1c533cf8063ab67e854200951",
    "clockwork-slack/0.8/bursty/none/2": "522855b649620ab361a6372cfe91df1e5f02a4351a5eba2bc6edee810bf59c53",
    "clockwork-slack/1.25/bursty/none/2": "e8be935183b7e81c612faa6408d481ba0c146b81db989d0d0be7477b291b175a",
    "clockwork-slack/0.8/bursty/throttle/1": "76abca26ae6dde01ba6858d66cd910a0904116e0181188b7b543688e8a9c065a",
    "clockwork-slack/1.25/bursty/throttle/1": "8689f0359945467a881bad9b83017c26d7f2a405f7acc2117f7f017b5fce96f3",
    "clockwork-slack/0.8/bursty/throttle/2": "5aad64306cae60585a77c8bf6f90717d1bae5c87030cfee61503a53bf93df24e",
    "clockwork-slack/1.25/bursty/throttle/2": "6f21bc5f5911c1882a66222a6d583f09c6bc2cd32fe5ed93d03361ab42109da5",
    "clockwork-slack/0.8/bursty/flaky-launch/1": "8aa9e8c46db7676a73034dfee1f77e3cbc95d0956e1b0b0f1ee695dc022aac7e",
    "clockwork-slack/1.25/bursty/flaky-launch/1": "140cdbc03606e43aab2a120fb56c5cba1c8e5f5d8d81e16bc09bdd86dae274d9",
    "clockwork-slack/0.8/bursty/flaky-launch/2": "e76d40034acc39cc2a19631b3045d256d4b5cab953b76250fc4710b1948ec347",
    "clockwork-slack/1.25/bursty/flaky-launch/2": "f87a1cc71b6030ffe8a7c862b8d21b1f2a1dee92a90766dddb70eefc52c5fb0a",
    "clockwork-slack/0.8/bursty/crashy/1": "14e255403895109db73c1231fe04fecf02a4a8d32175477bd99b9ffdb26f15b6",
    "clockwork-slack/1.25/bursty/crashy/1": "5dacf2d1ffe4d3c2ba777fdc64f9ba6db9f1748f2b129927dc5649b0805cb52e",
    "clockwork-slack/0.8/bursty/crashy/2": "14dec325e27b1885385b7bebebd4e32a706fe7526fe5cb47b345b4c0ced262b3",
    "clockwork-slack/1.25/bursty/crashy/2": "4f5e03675ee02693ade678ab2600eda8ed5560f032592bc4b5a5b49c46bfbf62",
    "clockwork-slack/0.8/bursty/lossy/1": "6469f3614f6fb5c74fde754a1071a267d2c0f961d940d6fbd3ecfe2e25d256fe",
    "clockwork-slack/1.25/bursty/lossy/1": "0a29fbceeb91874f2d12ac0fe2298a111944b5fcb8d4dd471550dc6943a7d720",
    "clockwork-slack/0.8/bursty/lossy/2": "b50a2bb26b92f7f142e90c4e4c24d2476a702f23855a55d7684369923fb3c481",
    "clockwork-slack/1.25/bursty/lossy/2": "25d715179fe364bf59051ac9aabcc770bb715662dacfef6fdc1ef1bf7b5d5cae",
    "clockwork-slack/0.8/bursty/storm/1": "4957158635066275632ebad5f9b6c58244d50495ad30fdcd214c5527e94f4611",
    "clockwork-slack/1.25/bursty/storm/1": "80cba8b59db21aaaef143995f016d3cf4c9e6c25f346c82cbcc8dc4864607626",
    "clockwork-slack/0.8/bursty/storm/2": "c56fcd94d1f2d6c006d8f2d604fa0a18cf63428ff91dbed9cb05a0316fde05c2",
    "clockwork-slack/1.25/bursty/storm/2": "7d5029a0e75814f0d1430ebeee23fdca40fc57e22d9094ff7586fec13b2acca8",
    "clockwork-slack/0.8/diurnal/none/1": "aabfb2451a5649f4d19c39751023076a4a6e5d78d49d64ff07fef5f7f0e6c668",
    "clockwork-slack/1.25/diurnal/none/1": "edf4cf9a6f0a2061c492f234d910f504510b7764c7d252967aebe324e5075162",
    "clockwork-slack/0.8/diurnal/none/2": "29b032e4f5da7bdb3254192b98791f5e9d4fcefa72d159b33dbfd89fc07f873e",
    "clockwork-slack/1.25/diurnal/none/2": "d9304403518d86f6b4cffdb37dfbb5207a11d32f32594bd1ed61cf23556e0787",
    "clockwork-slack/0.8/diurnal/throttle/1": "dab16510e8cc1fd7c97ad5dade179a18ceb89609b6f08e11dc7006442680e5ec",
    "clockwork-slack/1.25/diurnal/throttle/1": "4abe22c41b6c15d588f050f0d45f0d4f3bea455cc9f207adb6e97e3ffb142315",
    "clockwork-slack/0.8/diurnal/throttle/2": "8c1a16274537578f2506ba483930862f764852d05270201e28196aa91e5f21da",
    "clockwork-slack/1.25/diurnal/throttle/2": "57c3ef7ba34af90a5fadbc3b4e3189c16155597c6ed7c244a6d23ffeb489fc2b",
    "clockwork-slack/0.8/diurnal/flaky-launch/1": "e0c7e7549912897581a23da706b82df72e11c11b632f62f03c5a68ce63923fd7",
    "clockwork-slack/1.25/diurnal/flaky-launch/1": "bec2c589e8923ddef364b99d28660d7e0131ba36c18b5cda6e7bb0cc3fda421a",
    "clockwork-slack/0.8/diurnal/flaky-launch/2": "f1bb4e27dd615611c62bc7b62740eab78bc2e5367e493cc13da27c849db0e1a2",
    "clockwork-slack/1.25/diurnal/flaky-launch/2": "5a97df4ccc068aa48c09f8b0226f413670d7ddfb33bd0dd86e19236f8a575077",
    "clockwork-slack/0.8/diurnal/crashy/1": "e346f6d64bd23ae41df80b63e819f2b4c8919fc1e91c9267980616596ff1415b",
    "clockwork-slack/1.25/diurnal/crashy/1": "29d46d278ef824ac30d97ccc679b22f22a43f96284fd38353f4c6621d8c2068f",
    "clockwork-slack/0.8/diurnal/crashy/2": "12397dbb9d9173c97e19f0f51c06df9ef60af86cbf79417f76c63f2ab04d2bf0",
    "clockwork-slack/1.25/diurnal/crashy/2": "c06f628455543516a39862f7822694a5528a53ef324a3733e5f66de87fcb7275",
    "clockwork-slack/0.8/diurnal/lossy/1": "6e9950ecca4e49da38628ba80aaf75c6899b5f1ba56aa61b6ba0f36980b2cc23",
    "clockwork-slack/1.25/diurnal/lossy/1": "20105a8ea6d5a5c0c3e84ff72c8b2d557e9ce2fb0b490caae14df04853a11a10",
    "clockwork-slack/0.8/diurnal/lossy/2": "da25d8849d4c73fcd39bf3407f14df564c2cd4e5aebce8073dff1eb90d8176df",
    "clockwork-slack/1.25/diurnal/lossy/2": "0bf72fe2595e43a43afca722abbdd905ee2a6890e022fdeb8634ba3d4c549d34",
    "clockwork-slack/0.8/diurnal/storm/1": "4f14bbbcf0e2884766649ccc28ff9127662a127d18cef2a3331f952fbc57b680",
    "clockwork-slack/1.25/diurnal/storm/1": "4001a8f407668594eeda1009c98214e4a105e64f9c04b154eda61a2ee9c959cd",
    "clockwork-slack/0.8/diurnal/storm/2": "1d4dc8105550530cfc5d2b2a74f80267931042bea2237732a727ed7a38064920",
    "clockwork-slack/1.25/diurnal/storm/2": "f71f33af30a2ccdfd5d14c37ac60dba8251f56a67946f2d69a9fe5f10f39d222",
    "cluster/least_loaded/3": "b13a931efe14ae0a0ede28326f812ad931af095105c37cdac245ea68d892127c",
    "cluster/least_loaded/11": "d454f9491445f1b37588d1baf41129584d51666fbbcb85f99ed27c70af339f91",
    "cluster/round_robin/3": "e623774c43855af4f76d14218582a83f48bf11c4ba29b069c1bca8cce4821a62",
    "cluster/round_robin/11": "e0473e9765742310f22fccbc900282a1504f08cde74dcbc44e712c52f22fb9e4",
    "cluster/deadline_aware/3": "ba028de8b840b090f8592d0c2d63ddc1af30f4e8cb4723bf116dbf1cacf99819",
    "cluster/deadline_aware/11": "28251bf684f10882c33fcbe35f8244dc3a994e2b11921fd6e20cce4abc78ed2c",
    "cluster/partitioned/3": "b13a931efe14ae0a0ede28326f812ad931af095105c37cdac245ea68d892127c",
    "cluster/partitioned/11": "d454f9491445f1b37588d1baf41129584d51666fbbcb85f99ed27c70af339f91",
    "cluster/partitioned-migration/3": "ba028de8b840b090f8592d0c2d63ddc1af30f4e8cb4723bf116dbf1cacf99819",
    "cluster/partitioned-migration/11": "28251bf684f10882c33fcbe35f8244dc3a994e2b11921fd6e20cce4abc78ed2c",
    "cluster/targeted-crash/3": "173728d0fa6f2a2434b7c6866086c273edf21152b5d1f174a9dc6761983b5c2a",
    "cluster/targeted-crash/11": "30d6fe4aa3f7c92ce9dfcbabd15dd411c6a356ee15709e2b211dc1b3b8a2cf94",
    "cluster/targeted-throttle/3": "45cd67beed93ecacf17a4966927ce812bf170a43234e799b0bacce6d881d1d1f",
    "cluster/targeted-throttle/11": "8880358e0d0401d54f66109a7f408de5da19c4615ed497c358f7fb91405fa00b",
    "release/daris-mps6x1-os6/periodic/1": "308f35bee68de9793321672b5378456fa68c9d833b33d699f1759f9099ef2e1d",
    "release/daris-mps6x1-os6/periodic/2": "e27b60f1f0849256995720cce19daca7c472fb0ba7f71d7cfab96766bc14b60e",
    "release/daris-mps6x1-os6/poisson/1": "a09a4a917a35f38929269bd093ab01601b96750a776240d0f84d732ea1b95cc2",
    "release/daris-mps6x1-os6/poisson/2": "e48d71a1ea3cb60172959ba3234e04bfb60d12d1a013d15bddfde6b38ddc932f",
    "release/daris-mps6x1-os6/bursty/1": "7fc3deaea0152ca7682fc888d6bb2aeeb536ec24875c0da687db2a5763985fb4",
    "release/daris-mps6x1-os6/bursty/2": "d56abdd20dd22bac977181fb4d0cdf04b7390b7c688db4bbfb040e40b472c3c7",
    "release/daris-mps6x1-os6/diurnal/1": "ab0a439daed57e0f874f6e536cc194cfb92f6611c8d27413a87d0ae59ae811a6",
    "release/daris-mps6x1-os6/diurnal/2": "90aac2f6f9b08d841430fa6de7e3d3cd8145072c355571048bdbcfa7a6b8202e",
    "release/daris-mps6x1-os6/jittered/1": "691cecdb6e737e82de76493f8bd86980f2c4c24949f8bf510d3571928842b722",
    "release/daris-mps6x1-os6/jittered/2": "828813f4dd0b6260cb94421109d8ad7af44c6c6ca505d9693151ce482faa7bae",
    "release/daris-mpsstr3x3-os1/periodic/1": "1a7a87e4461c879ed1280f5ea5ef013ceb30ce453e400adf0e5d2acd90a33ac2",
    "release/daris-mpsstr3x3-os1/periodic/2": "7f70f8c960027a6ccfebfbfc6cab7d22f1cf7783f42aeeab49f87a423f4ac957",
    "release/daris-mpsstr3x3-os1/poisson/1": "10d354646d5468dbad4f10d6717d46fa7186534d949df9ef351ed9bed46be57b",
    "release/daris-mpsstr3x3-os1/poisson/2": "45190dbb777976cf311f9535e18e5502ba959178170bc716a7f74cb06426a760",
    "release/daris-mpsstr3x3-os1/bursty/1": "fc2398304f32f48d8f6e948756c7d11409a038617af9ad8fb759b970a4a1db50",
    "release/daris-mpsstr3x3-os1/bursty/2": "9cacccaf52c8b8e488f1249834a35b6f5dd80dea0c461ea3d5e37b9492095745",
    "release/daris-mpsstr3x3-os1/diurnal/1": "e801e618cd20424f48142af6ae419a0be70ec9fa1872d636bbd8bd1878c5f750",
    "release/daris-mpsstr3x3-os1/diurnal/2": "6e0c9e5a225c0862cafb2f3af81a67fe100e29fd8b3780519abbec82f73fbd50",
    "release/daris-mpsstr3x3-os1/jittered/1": "be18da9271e59bd5b922f12b9dd72698f8579985652660730166b587b69ab664",
    "release/daris-mpsstr3x3-os1/jittered/2": "47c1f92228fd16654b18ac5b026bf71b88d13933cc98dc7b508d60dd180ae6bc",
    "release/rtgpu/periodic/1": "97d87478160bc0d15072f5c699db8054ffccd7fd111bc7e966db97c7f6a33d1c",
    "release/rtgpu/periodic/2": "c63ec3198a755f489b42e0a13edbef48518bb54ac6b65db191f9f36b903d8809",
    "release/rtgpu/poisson/1": "dab98f3747516ca21e7234a5193dc9fb8bc56abdfce71aff923671389b78f7e4",
    "release/rtgpu/poisson/2": "678096b3a08f1cd4d6e5febbba087e5d73857ce81fa1ede40b7d182a714a627c",
    "release/rtgpu/bursty/1": "218cc81bdbf056481098c13d605f65ef8ddb67741b5addfd0e6bbcf5d6fa03db",
    "release/rtgpu/bursty/2": "2f6c86ff544b26b030c4add49b72941f508846e64c0837b6b8bd5a628104a2a0",
    "release/rtgpu/diurnal/1": "63d902a207ec896ec8082783fb48ae7632f560e388e9835a90856798b168e8eb",
    "release/rtgpu/diurnal/2": "7c502a39c24ddb2921802e56beb2ee8570346c8f3dc954c33e51c373fbc75fbb",
    "release/rtgpu/jittered/1": "b09c2e22a8f4c6ae95e48678e21176107af3a5db222a9123a7a202cb2038b4c2",
    "release/rtgpu/jittered/2": "d82a91ef2fd6aacc8588605b70cb08712a6050f1345bae25be484b6552d8d66f",
    "release/batching_server/periodic/1": "f87eb65c86075c14e66d1267240be30adefab76bfc075abca9378459e801a78d",
    "release/batching_server/periodic/2": "f87eb65c86075c14e66d1267240be30adefab76bfc075abca9378459e801a78d",
    "release/batching_server/poisson/1": "e08ae2c5bdb3cdf87f812404866c94b61dc197892b089df9c478a31894ae237b",
    "release/batching_server/poisson/2": "533db41b08627972b3112c2f43f29270e5ed19786c08e0d170d33443da8b8afc",
    "release/batching_server/bursty/1": "d1001571757482d0c45533efa71b0d19f852ef547a319e2578bf0962a64bbcdb",
    "release/batching_server/bursty/2": "537130a48054208a03eb1b24daba09b20957503ccc4b150adbbefbc231ca687a",
    "release/batching_server/diurnal/1": "bd9df3544a8f6945beb76837e4aaeccaaaddf2ab05fcc35df7edad137bcb11c0",
    "release/batching_server/diurnal/2": "4697af13628722cb528c91503b543ee7b47227ce71852c5db4c527a885cc8494",
    "release/batching_server/jittered/1": "699c7d0def959db6b87e87be161d9821148146690b85c266dd271eb92dea1c94",
    "release/batching_server/jittered/2": "dcdb37dac614d6c0f40ad8940acf92a4528b544583fb961969565d75125f05df",
    "daris-faults/mps6x1-os6/none/1": "308f35bee68de9793321672b5378456fa68c9d833b33d699f1759f9099ef2e1d",
    "daris-faults/str10/none/1": "d2040e695ec296126ef7bf88a8b4df0604458b4412c8cf896960168a3c20bab4",
    "saturated/gslice/none/1": "be78a07541412feac06b243b71ca0ce788a70b8515b3d167c061d434222a4baf",
    "saturated/single/none/1": "7d4231a875f10079f6258202778c7d294bffdf4c30830fefed8ffdddb29beb93",
    "saturated/batching_server/none/1": "d9e310e31aa79ee7327b330e9515c3e5023c51838580806850d112e1176a4a56",
    "daris-faults/mps6x1-os6/none/2": "e27b60f1f0849256995720cce19daca7c472fb0ba7f71d7cfab96766bc14b60e",
    "daris-faults/str10/none/2": "d7fa80f5218ee199766cf30c604d12e6562facc500c63270b4e430f7e2ee7c4f",
    "saturated/gslice/none/2": "be78a07541412feac06b243b71ca0ce788a70b8515b3d167c061d434222a4baf",
    "saturated/single/none/2": "7d4231a875f10079f6258202778c7d294bffdf4c30830fefed8ffdddb29beb93",
    "saturated/batching_server/none/2": "d9e310e31aa79ee7327b330e9515c3e5023c51838580806850d112e1176a4a56",
    "daris-faults/mps6x1-os6/throttle/1": "7206d2683c4d0f6582ed599b0a59fcbf5d7bd4da72fc7842a606e1968ff534e2",
    "daris-faults/str10/throttle/1": "f21cf34e747c58eb695b4f2a2b484fe8cfb5ac20c7015ebaa86cbf509c0cc7c5",
    "saturated/gslice/throttle/1": "35b0d5485835b69dfee6aa301b02e3452a63b07f2db81775277181fb0a9c9188",
    "saturated/single/throttle/1": "c72179e6f964d9b32a918934f8086040128e297c05670a862788a088f78420a1",
    "saturated/batching_server/throttle/1": "50b8c4fcc26e3816bdb6efc2d40efbb87289200992364c1abe2cfeb1d602996b",
    "daris-faults/mps6x1-os6/throttle/2": "781ac0f3d65db9e33d30846c489614be98e495bc6a494b25215c96664ef51b19",
    "daris-faults/str10/throttle/2": "1b8aec3de7ee02322896fc68eb8d1d6cf47267cdb4ff7194de49f326f212c5f7",
    "saturated/gslice/throttle/2": "35b0d5485835b69dfee6aa301b02e3452a63b07f2db81775277181fb0a9c9188",
    "saturated/single/throttle/2": "c72179e6f964d9b32a918934f8086040128e297c05670a862788a088f78420a1",
    "saturated/batching_server/throttle/2": "50b8c4fcc26e3816bdb6efc2d40efbb87289200992364c1abe2cfeb1d602996b",
    "daris-faults/mps6x1-os6/flaky-launch/1": "4fd51c4d88bab6d77e65ff6809132be98a4cd69e51c42ae78ee389f73d0abb15",
    "daris-faults/str10/flaky-launch/1": "6a19a58a416433f5b718d2b2954410501de19feda31a4414013a3424cbb8078a",
    "saturated/gslice/flaky-launch/1": "9faf9ebb1a17d4b36286a9b27db56f228f89113aca5ce90dea0a7791078db32d",
    "saturated/single/flaky-launch/1": "e89f3e64ae548f10cfb9ef5adc149ad1c4a4562eae0f4506721a68a92d0602fc",
    "saturated/batching_server/flaky-launch/1": "5ff1ece40f062660bb4ab2f8fc802783f2ec4111d8c6f959c6472c8ed5bd7158",
    "daris-faults/mps6x1-os6/flaky-launch/2": "677b1dd4fe2d20f45a4025a5942076d49cab25eddc6e9c445306e7448f5a7c6b",
    "daris-faults/str10/flaky-launch/2": "ec4ac76335f91d65c5b8d540d2d3ca3a62d0e5323978c4034a0ff07f9afc0813",
    "saturated/gslice/flaky-launch/2": "a2e5f2f881b30526dec0bd21dc2327cfb5ad07f007e1b53f940791015fbd6f6c",
    "saturated/single/flaky-launch/2": "2bf7fe8696d59e314e788967aac11ed358d437a91a929060a3649c905a47110f",
    "saturated/batching_server/flaky-launch/2": "d38ab83188716afa6a8f745af41ba2a120811093940153db87d5239517cd8cc7",
    "daris-faults/mps6x1-os6/crashy/1": "b703f4115a9a219bbd9c5ad3869eef64bf5504001d00f48d25cd8d0dafce3e07",
    "daris-faults/str10/crashy/1": "137620bd53919353695dc3e9ae36872f9b1538c09eb362e25ec7b556da576708",
    "saturated/gslice/crashy/1": "fd849e35517e81a34916f9ca27509b02ee18a0894155832573bfb2e3ff24708d",
    "saturated/single/crashy/1": "c9df16008e04ec3a9631115fd66255117a4982abb13013f98863d9960fc53b71",
    "saturated/batching_server/crashy/1": "c133e9a63606242a5c6fdd15c04d42b9ec76187b5b70f77a2b703abd1a216200",
    "daris-faults/mps6x1-os6/crashy/2": "30678fe5a72fd0f3a56d412f2bb4cc22d1b1bc34a08d37cddc13ce903728078f",
    "daris-faults/str10/crashy/2": "c2d99b2c7fae5ea8af193d576fc2d541a35dd59129b29ff54670950c8c9c4453",
    "saturated/gslice/crashy/2": "b870eb3faee7c20eb0d5bc96486f8dbf431b6159219301eb11df150f326b0458",
    "saturated/single/crashy/2": "471f6d4b80a8ee495a11ed36a4608302351e11c6d0de1cb162a953204872d551",
    "saturated/batching_server/crashy/2": "734caa8f52ae002c57a820239fb68e189b6a3ebed7ccb97ebb54d9d55ace2cc1",
    "daris-faults/mps6x1-os6/lossy/1": "d8de7379e0298521534a2e35ae3232baf4a85cfaf52d5d61b3304c5ae100bb93",
    "daris-faults/str10/lossy/1": "ddbae24b0c09227c29726d9100ebcb851a51eabc0961dc9962487ecb7cda5583",
    "saturated/gslice/lossy/1": "b870eb3faee7c20eb0d5bc96486f8dbf431b6159219301eb11df150f326b0458",
    "saturated/single/lossy/1": "471f6d4b80a8ee495a11ed36a4608302351e11c6d0de1cb162a953204872d551",
    "saturated/batching_server/lossy/1": "734caa8f52ae002c57a820239fb68e189b6a3ebed7ccb97ebb54d9d55ace2cc1",
    "daris-faults/mps6x1-os6/lossy/2": "58d87e2fbf8c1925de2a8cd1462ca583599e7057ebce2d5d40c609a877b67aa7",
    "daris-faults/str10/lossy/2": "de2e35cb6e1706816ee12aa350bedeb4ddd9b2adc7eecd650f90604f2c4197a4",
    "saturated/gslice/lossy/2": "b870eb3faee7c20eb0d5bc96486f8dbf431b6159219301eb11df150f326b0458",
    "saturated/single/lossy/2": "471f6d4b80a8ee495a11ed36a4608302351e11c6d0de1cb162a953204872d551",
    "saturated/batching_server/lossy/2": "734caa8f52ae002c57a820239fb68e189b6a3ebed7ccb97ebb54d9d55ace2cc1",
    "daris-faults/mps6x1-os6/storm/1": "b391349ddbbd05fe38aeb7be19aa9108cc57ceb8a7660e84351a362d9c103a49",
    "daris-faults/str10/storm/1": "787518d63e3cb6e5cd10cd50c7dc1ae40ddac0e5639b70fd33c01e9bb8598a54",
    "saturated/gslice/storm/1": "03aba3111571c6f2b63c9610f4a8ccbd5bdd7a5fffa97d409540ceb9fb2f7f2a",
    "saturated/single/storm/1": "b656492c255aa272128ccdc1fc2fa1dc0c6ed876bf8cff9104db1857087f9945",
    "saturated/batching_server/storm/1": "0a8c91775e62779b5152caf5215e5d22c81bc43eed530e831d9b5fc1ed7917e8",
    "daris-faults/mps6x1-os6/storm/2": "122f2bf7eb37d7b8c241b06592a2237b4bce75a6843d87d57dc693678441c3f6",
    "daris-faults/str10/storm/2": "81d8c4a282ca5355d2796984fb2f61eb96d50f9167a6d93c90a45aa32bb09dc3",
    "saturated/gslice/storm/2": "52e24fa1bc7c7a48585bad89d65599e627aab717aceb37fff07edba04bc577db",
    "saturated/single/storm/2": "75bd8fa3ea775027ef2b0cf8d930bf005cbb6e46dbe5a24e644cf13b92db5633",
    "saturated/batching_server/storm/2": "6ee40a84444ffdc1bd6abc7177ddb02ebe1989b99514a18b902f731a789c8259",
    "diurnal-times/0.6/1": "33f2e0872582c3b077c354f3c428c0a836bb5f0e98610ef17670cefc4b53995b",
    "diurnal-times/0.6/2": "ffb0181fd32ac8dfce541b55799ea0b2d0fc9183faa6724cc7e44855332033af",
    "diurnal-times/0.9/1": "e0f43e74bb4b84d249bae0a4c21e4a74a54a7d4a9b24e7547120b4b1537eba13",
    "diurnal-times/0.9/2": "ccb7de886974e58903dd3626f0d60269405658c94d6f4e9cc07cf40615c9810e",
}


def _golden_cases():
    cases = []
    for workload in CLOCKWORK_WORKLOADS:
        for fault in NAMED_FAULTS:
            for seed in CLOCKWORK_SEEDS:
                cases.append(f"clockwork/{workload}/{fault}/{seed}")
                for slack in CLOCKWORK_SLACKS:
                    cases.append(f"clockwork-slack/{slack}/{workload}/{fault}/{seed}")
    for label in CLUSTER_MATRIX:
        for seed in CLUSTER_SEEDS:
            cases.append(f"cluster/{label}/{seed}")
    for consumer in RELEASE_CONSUMERS:
        for workload in RELEASE_WORKLOADS:
            for seed in RELEASE_SEEDS:
                cases.append(f"release/{consumer}/{workload}/{seed}")
    for fault in NAMED_FAULTS:
        for seed in FAULT_SEEDS:
            for config in DARIS_FAULT_CONFIGS:
                cases.append(f"daris-faults/{config}/{fault}/{seed}")
            for backend in SATURATED_BACKENDS:
                cases.append(f"saturated/{backend}/{fault}/{seed}")
    for amplitude in DIURNAL_AMPLITUDES:
        for seed in FAULT_SEEDS:
            cases.append(f"diurnal-times/{amplitude}/{seed}")
    return cases


def run_case(case: str):
    """Metrics of one golden case, addressed by its id."""
    kind, *rest = case.split("/")
    if kind == "daris-faults":
        config, fault, seed = rest
        return daris_fault_metrics(config, fault, int(seed))
    if kind == "saturated":
        backend, fault, seed = rest
        return saturated_metrics(backend, fault, int(seed))
    if kind == "clockwork":
        workload, fault, seed = rest
        return clockwork_metrics(workload, fault, int(seed))
    if kind == "clockwork-slack":
        slack, workload, fault, seed = rest
        return clockwork_metrics(workload, fault, int(seed), float(slack))
    if kind == "release":
        consumer, workload, seed = rest
        return release_metrics(consumer, workload, int(seed))
    label, seed = rest
    return cluster_metrics(label, int(seed))


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN_DIGESTS) == sorted(_golden_cases())


def case_digest(case: str) -> str:
    """The digest of one golden case, addressed by its id."""
    kind, *rest = case.split("/")
    if kind == "diurnal-times":
        amplitude, seed = rest
        return diurnal_times_digest(float(amplitude), int(seed))
    return metrics_digest(run_case(case))


@pytest.mark.parametrize("case", _golden_cases())
def test_metrics_match_golden_digest(case):
    assert case_digest(case) == GOLDEN_DIGESTS[case]
