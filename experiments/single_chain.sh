#!/usr/bin/env bash
# End-to-end single-chain pipeline: corpus -> decoder -> compressor -> flow ->
# reflow -> sampling (25-step and 1-step) -> metric reports. Every artifact is
# a pure function of the seeds and config below; rerunning reproduces all
# outputs bitwise.
set -euo pipefail
cd "$(dirname "$0")/.."
# Bitwise reruns need one BLAS thread: with more, OpenBLAS may split a matrix
# product differently, and the loss CSVs differ in their last digits.
export OPENBLAS_NUM_THREADS=1

RUN=runs/single_chain
mkdir -p "$RUN"

python3 experiments/make_corpus.py --n 500 --max-len 20 --seed 7 --out "$RUN/corpus.fasta"

cat > "$RUN/run.cfg" <<EOF
# desk-scale single-chain run
model.depth = 2
model.width = 64
model.ratio_c = 4
model.L_max = 20
model.D = 32
model.embed_rank = 4
model.decoder_hidden = 64
train.steps = 1500
train.batch = 64
train.lr = 1e-3
train.warmup = 100
train.val_every = 100
train.seed = 7
solver.method = dopri5
solver.steps = 25
reflow.pairs = 1024
data.train_path = $RUN/corpus.fasta
EOF

python3 -m protflow train-decoder    --config "$RUN/run.cfg" --out "$RUN/decoder.ckpt"
python3 -m protflow train-compressor --config "$RUN/run.cfg" --init "$RUN/decoder.ckpt" --out "$RUN/pipeline.ckpt"
python3 -m protflow train-flow       --config "$RUN/run.cfg" --init "$RUN/pipeline.ckpt" --out "$RUN/flow.ckpt"
python3 -m protflow reflow           --config "$RUN/run.cfg" --init "$RUN/flow.ckpt" --out "$RUN/reflow.ckpt" \
    --set train.steps=500 --set train.lr=5e-4

python3 -m protflow sample --checkpoint "$RUN/flow.ckpt"   --out "$RUN/gen_25step.fasta" --n 128 --seed 11
python3 -m protflow sample --checkpoint "$RUN/reflow.ckpt" --out "$RUN/gen_1step.fasta"  --n 128 --seed 11 \
    --method euler --steps 1

python3 -m protflow eval --gen "$RUN/gen_25step.fasta" --ref "$RUN/corpus.fasta" --out "$RUN/report_25step"
python3 -m protflow eval --gen "$RUN/gen_1step.fasta"  --ref "$RUN/corpus.fasta" --out "$RUN/report_1step"

python3 -m protflow inspect-checkpoint --checkpoint "$RUN/reflow.ckpt" > "$RUN/reflow_summary.json"
echo "artifacts in $RUN/"
